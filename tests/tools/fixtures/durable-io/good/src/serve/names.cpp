// Fixture guard: comments, strings and identifiers that merely contain
// "rename" must not fire durable-io outside the durable-file module.
#include <string>

// The store commits through write_file_atomic (temp + rename(...)).
int job_renames = 0;
void count_rename_of(int n) { job_renames += n; }

std::string describe() {
  count_rename_of(1);
  return "rename(tmp, path) happens in recover::write_file_atomic";
}

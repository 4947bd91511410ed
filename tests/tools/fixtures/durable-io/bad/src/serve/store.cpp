// Fixture: a hand-written temp + rename outside src/recover/durable.*
// must fire durable-io, in each spelling.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

void commit(const std::string& path) {
  const std::string tmp = path + ".tmp";
  { std::ofstream(tmp) << "bytes"; }
  std::filesystem::rename(tmp, path);
}

void commit_c(const char* tmp, const char* path) { std::rename(tmp, path); }

void commit_posix(const char* tmp, const char* path) {
  ::renameat(0, tmp, 0, path);
}

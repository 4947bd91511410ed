// Fixture twin: the durable-file module itself may rename.
#include <filesystem>
#include <string>

void write_file_atomic(const std::string& tmp, const std::string& path) {
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
}

#include "recover/durable.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

namespace tw::recover {

std::string NumberedFiles::name(int n) const {
  char digits[16];
  std::snprintf(digits, sizeof digits, "-%06d", n);
  return std::string(prefix) + digits + std::string(ext);
}

std::string NumberedFiles::path(const std::string& dir, int n) const {
  return dir + "/" + name(n);
}

int NumberedFiles::number(std::string_view name) const {
  const std::size_t digits = prefix.size() + 1;
  if (name.size() != digits + 6 + ext.size() || !name.starts_with(prefix) ||
      name[prefix.size()] != '-' || !name.ends_with(ext))
    return -1;
  int n = 0;
  for (std::size_t i = digits; i < digits + 6; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return -1;
    n = n * 10 + (c - '0');
  }
  return n;
}

std::vector<int> NumberedFiles::list(const std::string& dir) const {
  std::vector<int> out;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return out;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const int n = number(entry.path().filename().string());
    if (n >= 0) out.push_back(n);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<std::string> write_file_atomic(
    const std::string& path,
    std::initializer_list<std::span<const std::uint8_t>> parts,
    DiskSite site, DiskFaultInjector* faults) {
  const std::string tmp = path + ".tmp";
  const auto write_parts = [&parts](std::ofstream& out, std::size_t limit) {
    for (const std::span<const std::uint8_t> part : parts) {
      const std::size_t n = std::min(limit, part.size());
      out.write(reinterpret_cast<const char*>(part.data()),
                static_cast<std::streamsize>(n));
      limit -= n;
    }
  };

  if (faults != nullptr) {
    const DiskFault f = faults->write_fault(site);
    if (f == DiskFault::kShortWrite) {
      // Leave the truncated temp file a dying disk leaves: half the bytes.
      std::size_t total = 0;
      for (const std::span<const std::uint8_t> part : parts)
        total += part.size();
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      write_parts(out, total / 2);
    }
    if (f != DiskFault::kNone)
      return std::string("injected ") + to_string(f) + " writing " + path;
  }

  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return "cannot open " + tmp;
    write_parts(out, SIZE_MAX);
    out.flush();
    if (!out) return "short write to " + tmp;
    // Close before the rename and check it: a close-time failure (full
    // disk, dying device) would otherwise be swallowed by the destructor
    // and the truncated temp file renamed into place.
    out.close();
    if (out.fail()) return "close failed on " + tmp;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return "rename " + tmp + " -> " + path + ": " + ec.message();
  return std::nullopt;
}

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  if (in.bad()) return std::nullopt;
  return bytes;
}

std::array<std::uint8_t, kFrameHeaderBytes> frame_header(
    std::string_view magic, std::uint32_t version,
    std::span<const std::uint8_t> payload) {
  ByteWriter w;
  for (const char c : magic.substr(0, 4)) w.u8(static_cast<std::uint8_t>(c));
  w.u32(version);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(crc32(payload));
  std::array<std::uint8_t, kFrameHeaderBytes> header{};
  std::copy(w.bytes().begin(), w.bytes().end(), header.begin());
  return header;
}

std::span<const std::uint8_t> unframe(std::span<const std::uint8_t> file,
                                      std::string_view magic,
                                      std::uint32_t version,
                                      const std::string& name) {
  if (file.size() < kFrameHeaderBytes)
    throw CheckpointError(CheckpointErrc::kTruncated,
                          name + " holds " + std::to_string(file.size()) +
                              " byte(s), header needs " +
                              std::to_string(kFrameHeaderBytes));
  ByteReader r(file);
  for (const char c : magic.substr(0, 4))
    if (r.u8() != static_cast<std::uint8_t>(c))
      throw CheckpointError(CheckpointErrc::kBadMagic,
                            name + " is not a " + std::string(magic) +
                                " file");
  const std::uint32_t got = r.u32();
  if (got != version)
    throw CheckpointError(CheckpointErrc::kBadVersion,
                          name + ": version " + std::to_string(got) +
                              ", expected " + std::to_string(version));
  const std::uint32_t size = r.u32();
  const std::uint32_t crc = r.u32();
  if (r.remaining() != size)
    throw CheckpointError(CheckpointErrc::kTruncated,
                          name + ": payload holds " +
                              std::to_string(r.remaining()) +
                              " byte(s), header promises " +
                              std::to_string(size));
  const std::span<const std::uint8_t> payload = file.subspan(kFrameHeaderBytes);
  if (crc32(payload) != crc)
    throw CheckpointError(CheckpointErrc::kBadCrc, "CRC mismatch in " + name);
  return payload;
}

}  // namespace tw::recover

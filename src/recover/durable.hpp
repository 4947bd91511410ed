// Durable files: the one place this package turns bytes into files that
// must survive a crash — checkpoints (recover/checkpoint), result-cache
// entries (serve/result_cache) and job-journal segments (serve/journal).
//
// Four mechanisms live here and nowhere else (tools/lint.py rule
// `durable-io` keeps `rename(` inside this module):
//   * numbered files: `<prefix>-NNNNNN<ext>` names, parsed and listed;
//   * write_file_atomic: temp file, flush and check, close and check,
//     then rename. The rename is the commit point, so a reader sees the
//     complete new file under the final name, or the previous one, or
//     nothing — never a truncated file;
//   * the frame: magic | u32 version | u32 payload size | u32 CRC-32 |
//     payload, little-endian, written by frame_header and checked by
//     unframe;
//   * read_file: a whole file into memory.
//
// The stores keep only their policy (retention and quota, a FIFO byte
// budget, segment rotation) and their own error type: write_file_atomic
// and read_file report failure as a value, which the caller throws as its
// typed I/O error (docs/ROBUSTNESS.md "Durable files").
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "recover/fault.hpp"
#include "recover/serialize.hpp"

namespace tw::recover {

/// One family of numbered files in a directory, `<prefix>-NNNNNN<ext>`
/// with six zero-padded digits: ckpt-000042.twcp, res-000007.twr,
/// seg-000003.twj.
struct NumberedFiles {
  std::string_view prefix;  ///< "ckpt"
  std::string_view ext;     ///< ".twcp"

  std::string name(int n) const;
  std::string path(const std::string& dir, int n) const;

  /// NNNNNN of a file name of this family; -1 for any other name.
  int number(std::string_view name) const;

  /// Numbers of this family's regular files in `dir`, ascending. A
  /// missing or unreadable directory yields an empty list.
  std::vector<int> list(const std::string& dir) const;
};

/// Writes `parts` back to back to `path + ".tmp"`, then renames the temp
/// file onto `path`. When `faults` is set it is polled once at `site`
/// first: an injected kEnospc writes nothing, an injected kShortWrite
/// leaves a truncated temp file behind, and both fail as a real failure
/// would. Open, write, flush and close are each checked *before* the
/// rename, so a disk that fills up at close time can never rename a
/// truncated file into place. Returns nullopt on success, else a
/// one-line description of what failed; the final name is then untouched.
[[nodiscard]] std::optional<std::string> write_file_atomic(
    const std::string& path,
    std::initializer_list<std::span<const std::uint8_t>> parts,
    DiskSite site, DiskFaultInjector* faults);

/// The whole of file `path`; nullopt when it cannot be opened or read.
std::optional<std::vector<std::uint8_t>> read_file(const std::string& path);

inline constexpr std::size_t kFrameHeaderBytes = 16;

/// The header framing `payload`: `magic` (4 characters) | version |
/// payload size | CRC-32 of the payload.
std::array<std::uint8_t, kFrameHeaderBytes> frame_header(
    std::string_view magic, std::uint32_t version,
    std::span<const std::uint8_t> payload);

/// Checks the frame of a whole file's bytes and returns a view of its
/// payload. Throws CheckpointError: kTruncated when the file is shorter
/// than the header or its payload is not the size the header promises,
/// kBadMagic, kBadVersion, or kBadCrc. `name` labels the messages.
std::span<const std::uint8_t> unframe(std::span<const std::uint8_t> file,
                                      std::string_view magic,
                                      std::uint32_t version,
                                      const std::string& name);

}  // namespace tw::recover

// Durable files (src/recover/durable): numbered file names, the atomic
// temp-file write with its flush-and-close-before-rename rule, the
// magic/version/size/CRC frame and whole-file reads — plus the three
// stores built on them. The stores' on-disk bytes are pinned by digest
// (a checkpoint file, a cache entry, a journal segment and a compacted
// segment, each written from fixed inputs), close-time write failures
// are provoked through a temp path symlinked to /dev/full, and journal
// compaction is driven through its disk-fault site.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "recover/checkpoint.hpp"
#include "recover/durable.hpp"
#include "recover/fault.hpp"
#include "serve/journal.hpp"
#include "serve/result_cache.hpp"

namespace tw {
namespace {

namespace fs = std::filesystem;
using recover::CheckpointErrc;
using recover::CheckpointError;
using recover::DiskFault;
using recover::DiskFaultPlan;
using recover::DiskSite;
using recover::FlowCheckpoint;

constexpr recover::NumberedFiles kSegments{"seg", ".twj"};

std::string fresh_dir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "/" + leaf;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// FNV-1a over a file's bytes.
std::uint64_t file_digest(const std::string& path) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const std::uint8_t b : file_bytes(path)) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// A stage-2 checkpoint built field by field (no flow run), so its
/// encoding depends on the checkpoint format alone.
FlowCheckpoint fixed_checkpoint() {
  FlowCheckpoint cp;
  cp.master_seed = 0x1234'5678'9abc'def0ull;
  cp.digest = 0x0fed'cba9'8765'4321ull;
  cp.phase = recover::FlowPhase::kStage2;
  cp.s1_done.final_teic = 1234.25;
  cp.s1_done.final_teil = 987.5;
  cp.s1_done.residual_overlap = 17;
  cp.s1_done.overloaded_sites = 2;
  cp.s1_done.core = Rect{-10, -20, 300, 400};
  cp.s1_done.t_infinity = 5.0e5;
  cp.s1_done.temperature_scale = 0.125;
  cp.s1_done.p2 = 0.75;
  cp.s1_done.temperature_steps = 117;
  cp.s1_done.attempts = 40'000;
  cp.s1_done.accepts = 12'345;
  cp.s1_done.trace = {{100.0, 50.5, 0.9, 64}, {10.0, 40.25, 0.4, 8}};
  cp.stage1_teil = 990.0;
  cp.stage1_chip_area = 124'000;
  cp.s2.pass = 1;
  cp.s2.anneal = {2.5, 3, 1, 880.0};
  cp.s2.p2 = 0.5;
  cp.s2.working_core = Rect{-12, -22, 310, 410};
  cp.s2.expansions = {{1, 2, 3, 4}, {5, 6, 7, 8}};
  cp.s2.rp.teil = 950.0;
  cp.s2.rp.route_length = 1000.5;
  cp.s2.rp.regions = 42;
  cp.s2.rp.router_counters.nodes_popped = 777;
  cp.s2.done.resize(1);
  cp.s2.done[0].chip_area = 125'000;
  cp.s2.rng = {1, 2, 3, 4};
  recover::PackedCell a;
  a.center = {10, 20};
  a.orient = Orient::S;
  a.aspect = 1.5;
  a.pin_site = {0, 3, 5};
  recover::PackedCell b;
  b.center = {-7, 99};
  b.instance = 1;
  cp.placement.cells = {a, b};
  return cp;
}

serve::JobParams fixed_params(std::uint64_t seed) {
  serve::JobParams p;
  p.master_seed = seed;
  p.replicas = 2;
  p.budget_moves = 100'000;
  p.s1_attempts_per_cell = 12;
  p.s1_p2_samples = 6;
  p.s2_attempts_per_cell = 8;
  p.steiner_m = 4;
  p.checkpoint_every = 1;
  return p;
}

// ------------------------------------------------------------ formats

// The digests below were computed on the commit before the three stores
// shared one durable-file module, and must never change: they pin
// checkpoint format v5, cache entry format v1 and the journal records.

TEST(DurableFormat, CheckpointFileBytesArePinned) {
  const std::string path = fresh_dir("tw_dur_fmt_ckpt") + "/ckpt-000001.twcp";
  recover::write_checkpoint_file(path, fixed_checkpoint());
  EXPECT_EQ(file_digest(path), 0xef69f942c252432aull);
  EXPECT_EQ(recover::encode_checkpoint(recover::load_checkpoint(path)),
            recover::encode_checkpoint(fixed_checkpoint()));
}

TEST(DurableFormat, CacheEntryBytesArePinned) {
  const std::string dir = fresh_dir("tw_dur_fmt_cache");
  serve::ResultCache cache(dir, 1u << 20);
  serve::CachedResult r;
  r.status = serve::JobStatus::kBudgetExhausted;
  r.fingerprint = 0xfeed'beef'cafe'f00dull;
  r.final_teil = 4321.125;
  r.final_chip_area = 77'777;
  r.replicas_succeeded = 3;
  r.replicas_total = 4;
  r.attempts = 5;
  cache.put(serve::CacheKey{0xaaaa, 0xbbbb}, r);
  const std::string path = dir + "/res-000001.twr";
  EXPECT_EQ(file_digest(path), 0x4fdcd4391a0d59ecull);
}

TEST(DurableFormat, JournalSegmentBytesArePinned) {
  const std::string dir = fresh_dir("tw_dur_fmt_journal") + "/journal";
  serve::JobJournal j(dir);
  j.record_submitted(1, fixed_params(11), "netlist one");
  j.record_submitted(2, fixed_params(22), "netlist two");
  j.record_submitted(3, fixed_params(33), "netlist three");
  j.record_cancelled(2);
  j.record_finished(1);
  const std::string seg = dir + "/seg-000001.twj";
  EXPECT_EQ(file_digest(seg), 0x0849bb285cf1d7ceull);

  j.compact(serve::JobJournal::replay(dir).live);
  const std::string compacted = dir + "/seg-000002.twj";
  EXPECT_FALSE(fs::exists(seg));
  EXPECT_EQ(file_digest(compacted), 0xacd9259e2143eeb2ull);
}

// ------------------------------------------------------- the module

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(DurableFile, NumberedNamesRoundTripAndForeignNamesAreRejected) {
  constexpr recover::NumberedFiles files{"seg", ".twj"};
  EXPECT_EQ(files.name(42), "seg-000042.twj");
  EXPECT_EQ(files.path("/d", 7), "/d/seg-000007.twj");
  EXPECT_EQ(files.number("seg-000042.twj"), 42);
  EXPECT_EQ(files.number("seg-999999.twj"), 999999);
  for (const char* foreign :
       {"seg-00004.twj", "seg-0000420.twj", "seg-00004x.twj",
        "res-000042.twj", "seg-000042.twr", "seg_000042.twj",
        "seg-000042.twj.tmp", ""})
    EXPECT_EQ(files.number(foreign), -1) << foreign;
}

TEST(DurableFile, ListingIsAscendingAndSkipsForeignAndNonRegularFiles) {
  constexpr recover::NumberedFiles files{"res", ".twr"};
  const std::string dir = fresh_dir("tw_dur_list");
  for (const int n : {12, 3, 7}) std::ofstream(files.path(dir, n)) << n;
  std::ofstream(dir + "/res-000009.twr.tmp") << "temp";
  std::ofstream(dir + "/other.txt") << "foreign";
  fs::create_directories(files.path(dir, 20));  // a directory, not a file
  EXPECT_EQ(files.list(dir), (std::vector<int>{3, 7, 12}));
  EXPECT_TRUE(files.list(dir + "/missing").empty());
}

TEST(DurableFile, AtomicWriteCommitsEveryPartAndLeavesNoTempFile) {
  const std::string path = fresh_dir("tw_dur_write") + "/f.bin";
  std::ofstream(path) << "previous";
  const std::string head = "ab", tail = "cde";
  ASSERT_FALSE(recover::write_file_atomic(
      path, {as_bytes(head), as_bytes(tail)}, DiskSite::kCacheWrite, nullptr));
  EXPECT_EQ(recover::read_file(path),
            (std::vector<std::uint8_t>{'a', 'b', 'c', 'd', 'e'}));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_FALSE(recover::read_file(path + ".missing").has_value());
}

TEST(DurableFile, InjectedFaultsLeaveTheFinalNameUntouched) {
  const std::string path = fresh_dir("tw_dur_inject") + "/f.bin";
  std::ofstream(path) << "old";
  DiskFaultPlan plan;
  plan.fail_at(DiskSite::kJournalRotate, 0, DiskFault::kEnospc);
  plan.fail_at(DiskSite::kJournalRotate, 1, DiskFault::kShortWrite);
  const std::string data(10, 'x');

  const auto enospc = recover::write_file_atomic(
      path, {as_bytes(data)}, DiskSite::kJournalRotate, &plan);
  ASSERT_TRUE(enospc.has_value());
  EXPECT_NE(enospc->find("injected enospc"), std::string::npos) << *enospc;
  EXPECT_FALSE(fs::exists(path + ".tmp")) << "ENOSPC writes nothing";

  const auto torn = recover::write_file_atomic(
      path, {as_bytes(data)}, DiskSite::kJournalRotate, &plan);
  ASSERT_TRUE(torn.has_value());
  ASSERT_TRUE(fs::exists(path + ".tmp"));
  EXPECT_LT(fs::file_size(path + ".tmp"), data.size())
      << "a short write leaves a truncated temp file";

  EXPECT_EQ(recover::read_file(path),
            (std::vector<std::uint8_t>{'o', 'l', 'd'}));
  // One poll per write, at the caller's site only.
  EXPECT_EQ(plan.count(DiskSite::kJournalRotate), 2);
  EXPECT_EQ(plan.count(DiskSite::kCacheWrite), 0);
  ASSERT_FALSE(recover::write_file_atomic(path, {as_bytes(data)},
                                          DiskSite::kJournalRotate, &plan));
  EXPECT_EQ(fs::file_size(path), data.size());
}

TEST(DurableFile, FrameRoundTripsAndEveryDefectIsTyped) {
  const std::string body = "payload bytes";
  const auto header = recover::frame_header("TWXX", 3, as_bytes(body));
  std::vector<std::uint8_t> file(header.begin(), header.end());
  file.insert(file.end(), body.begin(), body.end());
  const auto payload = recover::unframe(file, "TWXX", 3, "f");
  EXPECT_EQ(std::string(payload.begin(), payload.end()), body);

  const auto code_of = [](std::vector<std::uint8_t> bytes,
                          std::uint32_t version = 3) {
    try {
      (void)recover::unframe(bytes, "TWXX", version, "f");
    } catch (const CheckpointError& e) {
      return e.code();
    }
    ADD_FAILURE() << "defect went undetected";
    return CheckpointErrc::kIo;
  };
  EXPECT_EQ(code_of({file.begin(), file.begin() + 15}),
            CheckpointErrc::kTruncated);
  EXPECT_EQ(code_of({file.begin(), file.end() - 1}),
            CheckpointErrc::kTruncated);
  EXPECT_EQ(code_of(file, 4), CheckpointErrc::kBadVersion);
  std::vector<std::uint8_t> magic = file;
  magic[0] ^= 1;
  EXPECT_EQ(code_of(magic), CheckpointErrc::kBadMagic);
  std::vector<std::uint8_t> flipped = file;
  flipped.back() ^= 1;
  EXPECT_EQ(code_of(flipped), CheckpointErrc::kBadCrc);
}

// ------------------------------------------- close-time write failures

// Each store's temp path is made a symlink to /dev/full, which accepts
// open() and fails every write with ENOSPC once the stream buffer is
// pushed out — the failure a full disk gives at close time. The store
// must throw its typed I/O error and leave the final name alone. The
// symlink is removed before anything reads the directory back: renamed
// into place, it would make a reader consume /dev/full, which returns
// zeros forever.

bool have_dev_full() { return fs::is_character_file("/dev/full"); }

void link_to_dev_full(const std::string& tmp) {
  fs::remove(tmp);
  fs::create_symlink("/dev/full", tmp);
}

/// Removes whichever of the two names is a symlink (at most one is).
void unlink_symlinks(const std::string& tmp, const std::string& final_path) {
  for (const std::string& p : {tmp, final_path})
    if (fs::is_symlink(p)) fs::remove(p);
}

TEST(DurableClose, CachePutOntoAFullDiskThrowsAndIndexesNothing) {
  if (!have_dev_full()) GTEST_SKIP() << "/dev/full is not a character device";
  const std::string dir = fresh_dir("tw_dur_close_cache");
  serve::ResultCache cache(dir, 1u << 20);
  const std::string final_path = dir + "/res-000001.twr";
  link_to_dev_full(final_path + ".tmp");
  serve::CachedResult r;
  r.fingerprint = 0x5eed;
  ASSERT_THROW(cache.put(serve::CacheKey{1, 2}, r), serve::ServeError);
  const bool renamed = fs::is_symlink(final_path);
  unlink_symlinks(final_path + ".tmp", final_path);
  EXPECT_FALSE(renamed) << "a truncated entry was renamed into place";
  EXPECT_FALSE(fs::exists(final_path));
  EXPECT_FALSE(cache.lookup(serve::CacheKey{1, 2}).has_value());
  EXPECT_EQ(cache.size(), 0);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(serve::ResultCache(dir, 1u << 20).size(), 0);
}

TEST(DurableClose, JournalCompactionOntoAFullDiskKeepsEveryOldSegment) {
  if (!have_dev_full()) GTEST_SKIP() << "/dev/full is not a character device";
  const std::string dir = fresh_dir("tw_dur_close_journal") + "/journal";
  serve::JobJournal j(dir, /*max_segment_bytes=*/96);
  for (std::uint64_t id = 1; id <= 4; ++id)
    j.record_submitted(id, fixed_params(id), std::string(40, 'n'));
  j.record_cancelled(4);
  j.record_finished(1);
  const serve::JournalReplay before = serve::JobJournal::replay(dir);
  ASSERT_GT(before.segments, 1);
  const std::vector<int> segments = kSegments.list(dir);
  const std::string target = kSegments.path(dir, segments.back() + 1);

  link_to_dev_full(target + ".tmp");
  ASSERT_THROW(j.compact(before.live), serve::ServeError);
  const bool renamed = fs::is_symlink(target);
  unlink_symlinks(target + ".tmp", target);
  EXPECT_FALSE(renamed) << "a truncated segment was renamed into place";
  EXPECT_EQ(kSegments.list(dir), segments)
      << "a failed compaction must not unlink the old segments";

  const serve::JournalReplay after = serve::JobJournal::replay(dir);
  ASSERT_EQ(after.live.size(), before.live.size());
  for (std::size_t k = 0; k < after.live.size(); ++k) {
    EXPECT_EQ(after.live[k].job, before.live[k].job);
    EXPECT_EQ(after.live[k].cancelled, before.live[k].cancelled);
  }
}

TEST(DurableClose, CheckpointSaveOntoAFullDiskThrowsTyped) {
  if (!have_dev_full()) GTEST_SKIP() << "/dev/full is not a character device";
  const std::string dir = fresh_dir("tw_dur_close_ckpt");
  recover::FileCheckpointSink sink(dir);
  const std::string final_path = dir + "/ckpt-000001.twcp";
  link_to_dev_full(final_path + ".tmp");
  try {
    (void)sink.save(fixed_checkpoint());
    ADD_FAILURE() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.code(), CheckpointErrc::kIo);
  }
  const bool renamed = fs::is_symlink(final_path);
  unlink_symlinks(final_path + ".tmp", final_path);
  EXPECT_FALSE(renamed);
  EXPECT_FALSE(fs::exists(final_path));
  EXPECT_EQ(sink.saved(), 0);
  EXPECT_FALSE(recover::find_latest_checkpoint(dir).has_value());
  // The disk has room again: the sink reuses the number it failed on.
  EXPECT_EQ(sink.save(fixed_checkpoint()), final_path);
}

// ------------------------------------------- the compaction fault site

TEST(DurableCompaction, InjectedFaultsAtCompactionKeepTheJournalIntact) {
  const std::string dir = fresh_dir("tw_dur_compact_fault") + "/journal";
  DiskFaultPlan plan;
  serve::JobJournal j(dir, /*max_segment_bytes=*/96, &plan);
  for (std::uint64_t id = 1; id <= 5; ++id)
    j.record_submitted(id, fixed_params(id), std::string(40, 'n'));
  j.record_cancelled(5);
  j.record_finished(2);
  j.record_finished(3);
  const serve::JournalReplay before = serve::JobJournal::replay(dir);
  ASSERT_GT(before.segments, 1);
  ASSERT_EQ(before.live.size(), 3u);

  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> old_files;
  for (const int n : kSegments.list(dir))
    old_files.emplace_back(kSegments.path(dir, n),
                           *recover::read_file(kSegments.path(dir, n)));

  // Rotation polls the same site; arm the next two polls, which are the
  // two compaction attempts.
  const std::int64_t next = plan.count(DiskSite::kJournalRotate);
  plan.fail_at(DiskSite::kJournalRotate, next, DiskFault::kEnospc);
  plan.fail_at(DiskSite::kJournalRotate, next + 1, DiskFault::kShortWrite);
  for (int attempt = 0; attempt < 2; ++attempt) {
    ASSERT_THROW(j.compact(before.live), serve::ServeError) << attempt;
    for (const auto& [path, bytes] : old_files)
      EXPECT_EQ(recover::read_file(path), bytes) << path << " " << attempt;
    EXPECT_EQ(kSegments.list(dir).size(), old_files.size()) << attempt;

    const serve::JournalReplay r = serve::JobJournal::replay(dir);
    EXPECT_FALSE(r.torn_tail);
    ASSERT_EQ(r.live.size(), before.live.size());
    for (std::size_t k = 0; k < r.live.size(); ++k) {
      EXPECT_EQ(r.live[k].job, before.live[k].job);
      EXPECT_EQ(r.live[k].cancelled, before.live[k].cancelled);
    }
  }
  EXPECT_EQ(plan.count(DiskSite::kJournalRotate), next + 2);

  // The disk recovers: the next compaction succeeds and sheds the rest.
  j.compact(before.live);
  EXPECT_EQ(j.segments(), 1);
  EXPECT_EQ(kSegments.list(dir).size(), 1u);
  const serve::JournalReplay after = serve::JobJournal::replay(dir);
  ASSERT_EQ(after.live.size(), 3u);
  EXPECT_EQ(after.live[0].job, 1u);
  EXPECT_EQ(after.live[1].job, 4u);
  EXPECT_EQ(after.live[2].job, 5u);
  EXPECT_TRUE(after.live[2].cancelled);
}

}  // namespace
}  // namespace tw

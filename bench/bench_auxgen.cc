// Algorithm-1 throughput harness: the retired scan path (unordered_map
// (item, rating) -> users index, per-record eligibility filtering through a
// hash set, candidate list materialized per record) against the production
// CSR like-minded index with its pre-filtered eligible view. The sweep holds
// the item catalog fixed while the user count grows, so like-minded buckets
// grow linearly with the world — the regime ISSUE 8 targets. Also hosts the
// million-user out-of-core smoke: a SyntheticWorld whose domains are never
// built in RAM, streamed to OMDS files, mapped back, run through split +
// parallel auxiliary generation + checkpoint + serve scoring, with a
// peak-RSS ceiling asserted at the end.
//
//   ./bench_auxgen [--out=BENCH_auxgen.json] [--reps=3] [--max_users=100000]
//                  [--check] [--check_speedup_min=10]
//   ./bench_auxgen --million_smoke [--users=1000000] [--max_rss_mb=2048]
//                  [--workdir=/tmp/omnimatch_million]
//
// --check turns the sweep into a self-gating smoke test: the process fails
// unless the generation speedup at the largest swept world reaches
// --check_speedup_min. The two paths' bit-identity is pinned by
// AuxReviewTest.CsrPathBitIdenticalToReferenceScanOnTable2Config. Every
// sweep row lands in the JSON with seed_ns = scan-path time, so
// speedup_vs_seed is the scan-vs-CSR ratio.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/io.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/threadpool.h"
#include "core/aux_review.h"
#include "core/config.h"
#include "core/trainer.h"
#include "data/omds.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "serve/scorer.h"
#include "serve/snapshot.h"

using namespace omnimatch;

namespace {

int g_reps = 3;

/// Best-of-reps nanoseconds per call.
double BenchNs(const std::function<void()>& fn) {
  Stopwatch warm;
  fn();
  double once = std::max(warm.ElapsedSeconds(), 1e-9);
  int iters = std::max(1, static_cast<int>(0.02 / once));
  double best = 1e300;
  for (int rep = 0; rep < g_reps; ++rep) {
    Stopwatch watch;
    for (int i = 0; i < iters; ++i) fn();
    best = std::min(best, watch.ElapsedSeconds() / iters);
  }
  return best * 1e9;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

// ---------------------------------------------------------------------------
// The pre-PR scan path, ported verbatim as the seed variant: a hash-map
// index whose buckets are sorted/uniqued at build time, and a generation
// loop that re-filters the raw bucket through an eligibility hash set and
// materializes the candidate list for every source record.
// ---------------------------------------------------------------------------

using ScanIndex = std::unordered_map<long long, std::vector<int>>;

ScanIndex BuildScanIndex(const data::DomainDataset& d) {
  ScanIndex index;
  for (size_t i = 0; i < d.num_reviews(); ++i) {
    index[data::DomainDataset::ItemRatingKey(d.ReviewItem(i),
                                             d.ReviewRating(i))]
        .push_back(d.ReviewUser(i));
  }
  for (auto& [key, users] : index) {
    std::sort(users.begin(), users.end());
    users.erase(std::unique(users.begin(), users.end()), users.end());
  }
  return index;
}

std::vector<std::string> ScanGenerate(const data::CrossDomainDataset& cross,
                                      const ScanIndex& index,
                                      const std::unordered_set<int>& eligible,
                                      int user_id, Rng* rng) {
  std::vector<std::string> aux;
  const data::DomainDataset& source = cross.source();
  const data::DomainDataset& target = cross.target();
  for (int rec : source.RecordsOfUser(user_id)) {
    auto it = index.find(data::DomainDataset::ItemRatingKey(
        source.ReviewItem(rec), source.ReviewRating(rec)));
    std::vector<int> like_minded;
    if (it != index.end()) {
      for (int v : it->second) {
        if (v != user_id && eligible.count(v)) like_minded.push_back(v);
      }
    }
    if (like_minded.empty()) continue;
    int chosen =
        like_minded[rng->UniformU32(static_cast<uint32_t>(like_minded.size()))];
    data::IdSpan records = target.RecordsOfUser(chosen);
    if (records.empty()) continue;
    int pick = records[rng->UniformU32(static_cast<uint32_t>(records.size()))];
    aux.emplace_back(target.ReviewSummary(pick));
  }
  return aux;
}

// ---------------------------------------------------------------------------
// Throughput sweep
// ---------------------------------------------------------------------------

struct SweepRow {
  int users = 0;
  size_t records = 0;
  size_t test_users = 0;
  double scan_index_ns = 0.0;
  double csr_index_ns = 0.0;
  double scan_gen_ns = 0.0;  // per cold user
  double csr_gen_ns = 0.0;   // per cold user
  double gen_speedup() const {
    return csr_gen_ns > 0.0 ? scan_gen_ns / csr_gen_ns : 0.0;
  }
};

SweepRow RunSweepPoint(int num_users) {
  data::SyntheticConfig config;
  config.num_users = num_users;
  // Fixed catalog: the like-minded buckets grow with the user count, which
  // is exactly where the per-record scan filter loses to the single draw.
  config.items_per_domain = 400;
  config.mean_reviews_per_user = 8.0;
  config.min_reviews_per_user = 2;
  config.full_text_multiplier = 2;
  config.seed = 500 + static_cast<uint64_t>(num_users);
  data::SyntheticWorld world(config, {"Books", "Movies"});
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng split_rng(12);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &split_rng);

  SweepRow row;
  row.users = num_users;
  row.records = cross.source().num_reviews();
  row.test_users = split.test_users.size();

  const data::DomainDataset& source = cross.source();
  row.scan_index_ns = BenchNs([&]() {
    ScanIndex index = BuildScanIndex(source);
    if (index.empty()) std::abort();
  });
  row.csr_index_ns = BenchNs([&]() {
    data::CsrIndex<long long> index = data::CsrIndex<long long>::Build(
        source.num_reviews(),
        [&](size_t i) {
          return data::DomainDataset::ItemRatingKey(source.ReviewItem(i),
                                                    source.ReviewRating(i));
        },
        [&](size_t i) { return source.ReviewUser(i); },
        /*sort_unique_values=*/true);
    if (index.num_keys() == 0) std::abort();
  });

  // Generation: one full pass over the cold users per call, fresh per-user
  // streams so both variants consume identical randomness.
  ScanIndex scan_index = BuildScanIndex(source);
  std::unordered_set<int> eligible(split.train_users.begin(),
                                   split.train_users.end());
  core::AuxReviewGenerator generator(&cross, split.train_users);
  size_t texts_csr = 0, texts_scan = 0;
  double csr_pass_ns = BenchNs([&]() {
    texts_csr = 0;
    for (int user : split.test_users) {
      Rng rng(core::AuxReviewGenerator::PerUserSeed(2024, user));
      texts_csr += generator.GenerateForUser(user, &rng).size();
    }
  });
  double scan_pass_ns = BenchNs([&]() {
    texts_scan = 0;
    for (int user : split.test_users) {
      Rng rng(core::AuxReviewGenerator::PerUserSeed(2024, user));
      texts_scan +=
          ScanGenerate(cross, scan_index, eligible, user, &rng).size();
    }
  });
  if (texts_csr != texts_scan) {
    std::fprintf(stderr, "bench_auxgen: text count mismatch at N=%d\n",
                 num_users);
    std::abort();
  }
  row.csr_gen_ns = csr_pass_ns / static_cast<double>(row.test_users);
  row.scan_gen_ns = scan_pass_ns / static_cast<double>(row.test_users);
  return row;
}

// ---------------------------------------------------------------------------
// Million-user out-of-core smoke
// ---------------------------------------------------------------------------

int RunMillionSmoke(int users, double max_rss_mb, const std::string& workdir,
                    const std::string& out_path) {
  Stopwatch total;
  Status dir = EnsureDirectory(workdir);
  if (!dir.ok()) {
    std::fprintf(stderr, "bench_auxgen: %s\n", dir.ToString().c_str());
    return 1;
  }

  data::SyntheticConfig config;
  config.num_users = users;
  config.items_per_domain = 800;
  config.participation = 0.22;
  config.mean_reviews_per_user = 2.0;
  config.min_reviews_per_user = 1;
  config.full_text_multiplier = 1;
  config.seed = 90001;

  const std::vector<std::string> domains = {"Books", "Movies"};
  // domain() is never called, so the world holds latents only; reviews are
  // streamed straight into the OMDS writers and never held in memory.
  {
    Stopwatch watch;
    data::SyntheticWorld world(config, domains);
    for (const std::string& name : domains) {
      data::OmdsWriter writer;
      Status st = writer.Open(workdir + "/" + name + ".omds");
      if (st.ok()) st = world.WriteDomain(name, &writer);
      if (!st.ok()) {
        std::fprintf(stderr, "bench_auxgen: %s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("  streamed %-6s -> %zu records (%.1fs)\n", name.c_str(),
                  writer.num_records(), watch.ElapsedSeconds());
    }
  }

  // Map the files back; from here on every review byte is served by mmap.
  Result<data::DomainDataset> books =
      data::LoadDomainOmds(workdir + "/Books.omds", "Books");
  Result<data::DomainDataset> movies =
      data::LoadDomainOmds(workdir + "/Movies.omds", "Movies");
  if (!books.ok() || !movies.ok()) {
    std::fprintf(stderr, "bench_auxgen: OMDS load failed\n");
    return 1;
  }
  data::CrossDomainDataset cross(std::move(books).value(),
                                 std::move(movies).value());
  Rng split_rng(12);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &split_rng);
  std::printf("  overlap=%zu train=%zu test=%zu\n",
              cross.overlapping_users().size(), split.train_users.size(),
              split.test_users.size());

  // Parallel Algorithm 1 against the mapped files.
  core::AuxReviewGenerator generator(&cross, split.train_users);
  std::vector<int> cold = split.test_users;
  Stopwatch gen_watch;
  std::vector<std::vector<std::string>> docs = generator.GenerateAll(cold, 77);
  double gen_s = gen_watch.ElapsedSeconds();
  size_t nonempty = 0;
  for (const auto& d : docs) nonempty += d.empty() ? 0 : 1;
  double gen_ns_per_user =
      cold.empty() ? 0.0 : gen_s * 1e9 / static_cast<double>(cold.size());
  std::printf("  auxgen: %zu/%zu cold users got docs, %.0f ns/user\n",
              nonempty, cold.size(), gen_ns_per_user);
  if (nonempty == 0) {
    std::fprintf(stderr, "bench_auxgen: no auxiliary docs generated\n");
    return 1;
  }

  // Tiny model end to end: checkpoint, snapshot, serve scoring — the full
  // out-of-core serving path of ISSUE 8's acceptance criterion.
  core::OmniMatchConfig model;
  model.embed_dim = 8;
  model.cnn_channels = 4;
  model.kernel_sizes = {2, 3};
  model.feature_dim = 8;
  model.projection_dim = 4;
  model.doc_len = 16;
  model.item_doc_len = 16;
  model.batch_size = 64;
  model.epochs = 0;  // Prepare + checkpoint only; training is not the SUT
  model.aux_eval_samples = 1;
  model.select_best_epoch = false;
  model.seed = 31;
  core::OmniMatchTrainer trainer(model, &cross, split);
  Status prep = trainer.Prepare();
  if (!prep.ok()) {
    std::fprintf(stderr, "bench_auxgen: %s\n", prep.ToString().c_str());
    return 1;
  }
  trainer.Train();
  std::string checkpoint = workdir + "/million.omck";
  Status saved = trainer.SaveCheckpoint(checkpoint);
  if (!saved.ok()) {
    std::fprintf(stderr, "bench_auxgen: %s\n", saved.ToString().c_str());
    return 1;
  }

  auto snapshot = serve::ModelSnapshot::Load(model, &cross, split, checkpoint);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "bench_auxgen: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  serve::Scorer scorer(snapshot.value(), /*cache_capacity=*/4096);

  // A source-only user exercises online Algorithm-1 admission against the
  // mapped source domain.
  int source_only = -1;
  for (int u : cross.source().users()) {
    if (!cross.target().HasUser(u)) {
      source_only = u;
      break;
    }
  }
  std::vector<serve::ScoreRequest> requests;
  for (size_t i = 0; i < std::min<size_t>(8, split.test_users.size()); ++i) {
    requests.push_back({split.test_users[i], cross.target().items()[i]});
  }
  if (source_only >= 0) {
    requests.push_back({source_only, cross.target().items()[0]});
  }
  std::vector<float> scores = scorer.ScoreBatch(requests);
  for (float s : scores) {
    if (!std::isfinite(s)) {
      std::fprintf(stderr, "bench_auxgen: non-finite serve score\n");
      return 1;
    }
  }
  std::printf("  served %zu requests (incl. source-only user %d)\n",
              scores.size(), source_only);

  double rss_mb = PeakRssMb();
  std::printf("  peak RSS %.0f MB (budget %.0f MB), total %.1fs\n", rss_mb,
              max_rss_mb, total.ElapsedSeconds());

  std::vector<bench::KernelSample> samples;
  samples.push_back({StrFormat("million_smoke/auxgen/users=%d", users),
                     "csr-mmap", ThreadPool::Global().num_threads(),
                     gen_ns_per_user, 0.0});
  samples.push_back({StrFormat("million_smoke/peak_rss_mb/users=%d", users),
                     "csr-mmap", 1, rss_mb, 0.0});
  if (!out_path.empty() && !bench::WriteBenchJson(out_path, samples)) {
    std::fprintf(stderr, "bench_auxgen: cannot write %s\n", out_path.c_str());
    return 1;
  }

  if (rss_mb > max_rss_mb) {
    std::fprintf(stderr,
                 "bench_auxgen: FAIL peak RSS %.0f MB exceeds the %.0f MB "
                 "budget\n",
                 rss_mb, max_rss_mb);
    return 1;
  }
  std::printf("million smoke OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv).ok()) return 1;
  g_reps = flags.GetInt("reps", 3);
  ApplyThreadsFlag(flags);
  std::string out_path = flags.GetString("out", "BENCH_auxgen.json");

  if (flags.GetBool("million_smoke", false)) {
    return RunMillionSmoke(
        flags.GetInt("users", 1000000), flags.GetDouble("max_rss_mb", 2048.0),
        flags.GetString("workdir", "/tmp/omnimatch_million"), out_path);
  }

  bool check = flags.GetBool("check", false);
  double check_speedup_min = flags.GetDouble("check_speedup_min", 10.0);
  int max_users = flags.GetInt("max_users", 100000);

  std::vector<int> sweep = {2000, 20000};
  if (max_users > sweep.back()) sweep.push_back(max_users);

  std::vector<bench::KernelSample> samples;
  double largest_speedup = 0.0;
  std::printf("%8s %10s %8s %14s %14s %10s\n", "users", "records", "cold",
              "scan ns/user", "csr ns/user", "speedup");
  for (int n : sweep) {
    SweepRow row = RunSweepPoint(n);
    std::printf("%8d %10zu %8zu %14.0f %14.0f %9.1fx\n", row.users,
                row.records, row.test_users, row.scan_gen_ns, row.csr_gen_ns,
                row.gen_speedup());
    samples.push_back({StrFormat("auxgen/users=%d", n), "csr", 1,
                       row.csr_gen_ns, row.scan_gen_ns});
    samples.push_back({StrFormat("index_build/users=%d", n), "csr",
                       ThreadPool::Global().num_threads(), row.csr_index_ns,
                       row.scan_index_ns});
    largest_speedup = row.gen_speedup();
  }

  if (!out_path.empty()) {
    if (!bench::WriteBenchJson(out_path, samples)) {
      std::fprintf(stderr, "bench_auxgen: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (check && largest_speedup < check_speedup_min) {
    std::fprintf(stderr,
                 "bench_auxgen: FAIL speedup %.1fx at %d users is below the "
                 "%.1fx gate\n",
                 largest_speedup, max_users, check_speedup_min);
    return 1;
  }
  if (check) std::printf("check OK (speedup %.1fx)\n", largest_speedup);
  return 0;
}

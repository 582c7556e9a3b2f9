// WAL microbench for the wall-clock cluster benchmark (perfbench/run.py).
//
//   perf_walbench --dir DIR --commands C --payload-bytes P
//
// Times store::Wal::append and store::Wal::sync (fsync on, as
// probft_node runs it) on a decide record of the size a replica writes
// per decided slot: u64 slot + length-prefixed batch of C requests with
// P-byte payloads (smr::encode_batch). Each iteration appends one record
// and syncs it, as SmrReplica's decide path does. Runs until kRecords
// records or kSeconds seconds, whichever comes first, in DIR (created,
// and removed by the caller) — put it on the same filesystem as the
// cluster's WALs.
//
// Prints one JSON object: record bytes, iterations, and the median and
// mean of append and sync time in microseconds.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "smr/batch.hpp"
#include "store/wal.hpp"

namespace {

using namespace probft;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kRecords = 2000;
constexpr double kSeconds = 1.5;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  std::uint64_t commands = 0, payload_bytes = 0;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--dir") {
        dir = value;
      } else if (key == "--commands") {
        commands = std::stoull(value);
      } else if (key == "--payload-bytes") {
        payload_bytes = std::stoull(value);
      } else {
        throw std::invalid_argument(key);
      }
    }
    if (dir.empty() || argc % 2 == 0 || commands == 0) {
      throw std::invalid_argument("missing --dir or --commands");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "usage: perf_walbench --dir DIR --commands C "
                 "--payload-bytes P (%s)\n",
                 e.what());
    return 2;
  }

  smr::Batch batch;
  for (std::uint64_t i = 0; i < commands; ++i) {
    batch.push_back(smr::Request{1000 + i, 1, Bytes(payload_bytes, 'k')});
  }
  const Bytes value = smr::encode_batch(batch);

  std::vector<double> append_us, sync_us;
  try {
    store::Wal wal(store::WalOptions{dir, /*fsync=*/true});
    const auto stop_at =
        Clock::now() + std::chrono::duration<double>(kSeconds);
    for (std::uint64_t slot = 0; slot < kRecords && Clock::now() < stop_at;
         ++slot) {
      Writer w;
      w.u64(slot);
      w.bytes(ByteSpan(value.data(), value.size()));
      const Bytes record = std::move(w).take();
      const auto t0 = Clock::now();
      wal.append(record);
      const auto t1 = Clock::now();
      wal.sync();
      const auto t2 = Clock::now();
      append_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
      sync_us.push_back(
          std::chrono::duration<double, std::micro>(t2 - t1).count());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "WAL error: %s\n", e.what());
    return 1;
  }
  std::printf(
      "{\"record_bytes\": %zu, \"iterations\": %zu, "
      "\"append_us_p50\": %.3f, \"append_us_mean\": %.3f, "
      "\"sync_us_p50\": %.3f, \"sync_us_mean\": %.3f}\n",
      value.size() + 12, append_us.size(), median(append_us),
      mean(append_us), median(sync_us), mean(sync_us));
  return append_us.empty() ? 1 : 0;
}

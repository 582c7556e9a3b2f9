// Load generator for the wall-clock cluster benchmark (perfbench/run.py).
//
//   perf_loadgen --servers 127.0.0.1:P1,...,127.0.0.1:P4 --seed N
//       --seconds S [--warmup W] --launch-ns T --records FILE
//       [--mode open --rate R | --mode closed --sessions C]
//       [--shards S] [--reads-per-write K] [--dtx-every D]
//
// One thread, one TCP connection per replica client port, speaking client
// wire v2 (net/client.hpp inside net/frame.hpp frames). Many client
// sessions (client ids) are multiplexed over those connections; a session
// has at most one operation outstanding, so the engine's per-client
// exactly-once dedup applies to every request.
//
// Phases:
//   1. Dial every server (retrying while the nodes bind).
//   2. Probe: one write per shard, plus one linearizable read when
//      --reads-per-write > 0, each retried until executed. The time from
//      --launch-ns (CLOCK_MONOTONIC when the first node was spawned) to
//      the last probe reply is the cluster's set-up time.
//   3. Run the workload for --warmup seconds unmeasured (a virtual host
//      takes a moment to give a sudden CPU demand its full share), then
//      measure the operations due in the next --seconds. Open loop:
//      Poisson arrivals at --rate per second (rate × duration arrival
//      times, uniform over warm-up plus window, from a schedule seeded by
//      --seed); each request is timed from the moment it was due, and the
//      send lateness is recorded. Closed loop: --sessions sessions, each
//      sending its next operation when the previous one completes (start
//      times seeded, spread over the warm-up).
//   4. Drain: no new operations; outstanding ones get up to 10 s more.
//      Whatever is still unanswered then counts as failed.
//
// Operations: a write's payload is unique and is its own key and value
// (smr::read_view_key). With --reads-per-write K, every completed write is
// followed by K linearizable reads keyed by it (the integer Bresenham
// schedule probft_client uses at read ratio K/(K+1)), so each read has a
// known expected value and a mismatch is a stale read. With --dtx-every D
// about one operation in D (seeded) is a "DTX1" cross-shard transaction
// with one mined key per shard. Requests go to the view-1 leader of the
// owning shard; unanswered ones are re-sent to every server after 2 s,
// and a kRejected reply re-sends after 100 ms.
//
// Output: one JSON object on stdout with the counters, and one line per
// measured operation in --records:
//   <kind w|r|d> <client> <seq> <due_ns> <sent_ns> <done_ns> <status>
// status: ok | stale | wrong | timeout. All times are CLOCK_MONOTONIC ns,
// comparable with the nodes' own timestamps on the same host.
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/codec.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "shard/placement.hpp"

namespace {

using namespace probft;

constexpr std::uint64_t kRetryNs = 2'000'000'000;      // silence → resend
constexpr std::uint64_t kRejectRetryNs = 100'000'000;  // kRejected floor
constexpr std::uint64_t kReadBounceNs = 10'000'000;    // read rejected
constexpr std::uint64_t kDrainNs = 10'000'000'000;
constexpr std::uint64_t kConnectNs = 60'000'000'000;
constexpr std::uint64_t kProbeClient = 1;
constexpr std::uint64_t kFirstSessionClient = 1000;

std::uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000 +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t parse_u64(const std::string& text) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    throw std::invalid_argument(text);
  }
  std::size_t consumed = 0;
  const std::uint64_t value = std::stoull(text, &consumed);
  if (consumed != text.size()) throw std::invalid_argument(text);
  return value;
}

struct Options {
  std::vector<std::pair<std::string, std::uint16_t>> servers;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  double warmup = 0.0;
  std::uint64_t launch_ns = 0;
  std::string records;
  bool open_loop = false;
  double rate = 100.0;
  std::uint64_t sessions = 1;
  std::uint32_t shards = 1;
  std::uint32_t reads_per_write = 0;
  std::uint32_t dtx_every = 0;  // 0 = no dtx
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (key == "--servers") {
      std::size_t pos = 0;
      while (pos < value.size()) {
        const std::size_t comma = value.find(',', pos);
        const std::string entry = value.substr(pos, comma - pos);
        const std::size_t colon = entry.rfind(':');
        if (colon == std::string::npos || colon == 0) return false;
        opt.servers.emplace_back(
            entry.substr(0, colon),
            static_cast<std::uint16_t>(parse_u64(entry.substr(colon + 1))));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (key == "--seed") {
      opt.seed = parse_u64(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--warmup") {
      opt.warmup = std::stod(value);
    } else if (key == "--launch-ns") {
      opt.launch_ns = parse_u64(value);
    } else if (key == "--records") {
      opt.records = value;
    } else if (key == "--mode") {
      if (value != "open" && value != "closed") return false;
      opt.open_loop = value == "open";
    } else if (key == "--rate") {
      opt.rate = std::stod(value);
    } else if (key == "--sessions") {
      opt.sessions = parse_u64(value);
    } else if (key == "--shards") {
      opt.shards = static_cast<std::uint32_t>(parse_u64(value));
    } else if (key == "--reads-per-write") {
      opt.reads_per_write = static_cast<std::uint32_t>(parse_u64(value));
    } else if (key == "--dtx-every") {
      opt.dtx_every = static_cast<std::uint32_t>(parse_u64(value));
    } else {
      return false;
    }
  }
  return !opt.servers.empty() && opt.seconds >= 0.0 && opt.warmup >= 0.0 &&
         opt.rate > 0.0 &&
         opt.sessions >= 1 && opt.shards >= 1 &&
         opt.shards <= shard::kMaxShards;
}

int dial(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* result = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &result) != 0 ||
      result == nullptr) {
    return -1;
  }
  int fd = ::socket(result->ai_family, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd >= 0) {
    // Loopback connects complete (or are refused) immediately; wait for
    // the outcome instead of carrying a half-open socket around.
    if (::connect(fd, result->ai_addr, result->ai_addrlen) != 0) {
      pollfd p{fd, POLLOUT, 0};
      int err = 0;
      socklen_t len = sizeof(err);
      if (errno != EINPROGRESS || ::poll(&p, 1, 1000) != 1 ||
          ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
          err != 0) {
        ::close(fd);
        fd = -1;
      }
    }
  }
  ::freeaddrinfo(result);
  if (fd >= 0) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

enum class Kind : char { kWrite = 'w', kRead = 'r', kDtx = 'd' };

/// One operation in flight (writes and dtx keyed by (client, seq), reads
/// by (client, read id) in a separate table).
struct Op {
  Kind kind = Kind::kWrite;
  std::uint64_t session = 0;  // index into the session table; probes: ~0
  std::uint64_t client = 0;
  std::uint64_t id = 0;  // seq or read id
  Bytes body;            // encoded ClientRequest / ReadRequest
  Bytes expect;          // write: echoed result; read: expected value
  std::size_t payload_bytes = 0;  // write / dtx: the command's payload
  std::size_t server = 0;
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint64_t next_retry_ns = 0;
  bool measured = false;
};

struct Session {
  std::uint64_t client = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t next_read = 0;
  Bytes last_write;  // payload (= key = value) of the last completed write
  std::uint32_t reads_owed = 0;
};

struct Record {
  Kind kind;
  std::uint64_t client, id, due, sent, done;
  const char* status;
};

class Generator {
 public:
  explicit Generator(Options opt)
      : opt_(std::move(opt)), rng_(opt_.seed), conns_(opt_.servers.size()) {
    map_.shard_count = opt_.shards;
  }

  int run() {
    if (!connect_all()) {
      std::fprintf(stderr, "loadgen: cannot reach every server\n");
      return 1;
    }
    if (!probe()) {
      std::fprintf(stderr, "loadgen: probe got no executed reply\n");
      return 1;
    }
    const std::uint64_t setup_done = now_ns();
    if (opt_.seconds > 0.0) measure();
    print_summary(setup_done);
    return write_records() ? 0 : 1;
  }

 private:
  struct Conn {
    int fd = -1;
    net::FrameDecoder decoder;
    Bytes out;
    std::size_t out_off = 0;
  };

  static std::uint64_t key_of(std::uint64_t client, std::uint64_t id) {
    return (client << 40) ^ id;
  }
  [[nodiscard]] std::size_t leader_for(ByteSpan key) const {
    const shard::ShardId s = shard::shard_of(map_, key);
    return shard::lead_replica(s, static_cast<std::uint32_t>(conns_.size())) -
           1;
  }

  bool connect_all() {
    const std::uint64_t deadline = now_ns() + kConnectNs;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      while (conns_[i].fd < 0) {
        conns_[i].fd = dial(opt_.servers[i].first, opt_.servers[i].second);
        if (conns_[i].fd >= 0) break;
        if (now_ns() >= deadline) return false;
        ::usleep(1'000);
      }
    }
    return true;
  }

  void queue_frame(std::size_t server, std::uint8_t tag, const Bytes& body) {
    Conn& c = conns_[server];
    if (c.fd < 0) return;
    const Bytes frame =
        net::encode_frame(0, tag, ByteSpan(body.data(), body.size()));
    c.out.insert(c.out.end(), frame.begin(), frame.end());
    flush(c);
  }

  void flush(Conn& c) {
    while (c.fd >= 0 && c.out_off < c.out.size()) {
      const ssize_t wrote = ::send(c.fd, c.out.data() + c.out_off,
                                   c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (wrote <= 0) {
        close_conn(c);
        return;
      }
      c.out_off += static_cast<std::size_t>(wrote);
    }
    c.out.clear();
    c.out_off = 0;
  }

  void close_conn(Conn& c) {
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
    c.out.clear();
    c.out_off = 0;
  }

  void send_op(Op& op, std::size_t server) {
    queue_frame(server,
                op.kind == Kind::kRead ? net::kClientReadTag
                                       : net::kClientRequestTag,
                op.body);
  }
  void send_everywhere(Op& op) {
    for (std::size_t s = 0; s < conns_.size(); ++s) send_op(op, s);
  }

  // ---- operation construction ----

  Op make_write(std::uint64_t client, std::uint64_t seq, Bytes payload) {
    Op op;
    op.kind = Kind::kWrite;
    op.client = client;
    op.id = seq;
    op.server = leader_for(ByteSpan(payload.data(), payload.size()));
    net::ClientRequest req;
    req.client_id = client;
    req.seq = seq;
    req.payload = payload;
    op.body = req.encode();
    op.payload_bytes = payload.size();
    op.expect = std::move(payload);
    return op;
  }

  Op make_read(std::uint64_t client, std::uint64_t read_id, const Bytes& key) {
    Op op;
    op.kind = Kind::kRead;
    op.client = client;
    op.id = read_id;
    op.server = leader_for(ByteSpan(key.data(), key.size()));
    net::ReadRequest req;
    req.client_id = client;
    req.read_id = read_id;
    req.consistency = net::ReadConsistency::kLinearizable;
    req.key = key;
    op.body = req.encode();
    op.expect = key;  // each key is written once with value == key
    return op;
  }

  Op make_dtx(std::uint64_t client, std::uint64_t seq) {
    std::vector<Bytes> keys;
    for (shard::ShardId s = 0; s < opt_.shards; ++s) {
      for (std::uint64_t nonce = 0;; ++nonce) {
        Bytes key = to_bytes("x" + std::to_string(opt_.seed) + "-" +
                             std::to_string(client) + "-" +
                             std::to_string(seq) + "-" +
                             std::to_string(nonce));
        if (shard::shard_of(map_, ByteSpan(key.data(), key.size())) == s) {
          keys.push_back(std::move(key));
          break;
        }
      }
    }
    Writer w;
    w.raw(ByteSpan(reinterpret_cast<const std::uint8_t*>("DTX1"), 4));
    w.vec(keys, [](Writer& wr, const Bytes& key) {
      wr.bytes(ByteSpan(key.data(), key.size()));
    });
    Op op;
    op.kind = Kind::kDtx;
    op.client = client;
    op.id = seq;
    op.server = leader_for(ByteSpan(keys.front().data(), keys.front().size()));
    net::ClientRequest req;
    req.client_id = client;
    req.seq = seq;
    req.payload = std::move(w).take();
    op.body = req.encode();
    op.payload_bytes = req.payload.size();
    return op;
  }

  void start_op(Op op, std::uint64_t due, bool measured) {
    const std::uint64_t now = now_ns();
    op.due_ns = due;
    op.sent_ns = now;
    op.next_retry_ns = now + kRetryNs;
    op.measured = measured;
    if (measured) {
      ++attempted_;
      if (opt_.open_loop) lags_.push_back(now - due);
    }
    send_op(op, op.server);
    const std::uint64_t key = key_of(op.client, op.id);
    if (op.kind == Kind::kRead) {
      reads_.emplace(key, std::move(op));
    } else {
      writes_.emplace(key, std::move(op));
    }
  }

  /// A session's next operation: owed reads first (keyed by its last
  /// completed write), then a write — or, with --dtx-every D, a dtx with
  /// probability 1/D.
  void issue_next(std::uint64_t index, std::uint64_t due) {
    Session& s = sessions_[index];
    if (s.reads_owed > 0) {
      --s.reads_owed;
      Op op = make_read(s.client, ++s.next_read, s.last_write);
      op.session = index;
      start_op(std::move(op), due, due >= t0_);
      return;
    }
    const std::uint64_t seq = ++s.next_seq;
    if (opt_.dtx_every > 0 && dtx_pick_(rng_) == 0) {
      Op op = make_dtx(s.client, seq);
      op.session = index;
      start_op(std::move(op), due, due >= t0_);
      return;
    }
    Op op = make_write(s.client, seq,
                       to_bytes("k" + std::to_string(opt_.seed) + "-" +
                                std::to_string(s.client) + "-" +
                                std::to_string(seq)));
    op.session = index;
    start_op(std::move(op), due, due >= t0_);
  }

  // ---- reply handling ----

  void finish(Op& op, const char* status) {
    const std::uint64_t done = now_ns();
    const bool ok = std::strcmp(status, "ok") == 0;
    if (ok) ++ok_total_;
    if (ok && op.kind != Kind::kRead) {
      ++commands_ok_;
      command_bytes_ += op.payload_bytes;
    }
    if (op.kind == Kind::kWrite && ok) ++writes_ok_;
    if (op.measured) {
      records_.push_back(Record{op.kind, op.client, op.id, op.due_ns,
                                op.sent_ns, done, status});
      if (!ok) ++failed_;
    } else if (!ok) {
      ++unmeasured_failed_;
    }
    if (op.session == kNoSession) return;
    Session& s = sessions_[op.session];
    if (op.kind == Kind::kWrite && ok) {
      s.last_write = op.expect;
      s.reads_owed = opt_.reads_per_write;
    }
    completed_sessions_.push_back(op.session);
  }

  void on_reply(const net::ClientReply& reply) {
    const auto it = writes_.find(key_of(reply.client_id, reply.seq));
    if (it == writes_.end()) {
      ++duplicates_;
      return;
    }
    Op& op = it->second;
    if (reply.status != net::ReplyStatus::kExecuted) {
      ++rejected_;
      op.next_retry_ns = std::min(op.next_retry_ns, now_ns() + kRejectRetryNs);
      return;
    }
    const char* status = "ok";
    if (op.kind == Kind::kDtx) {
      const std::string outcome(reply.result.begin(), reply.result.end());
      if (outcome == "dtx-committed") {
        ++dtx_committed_;
      } else if (outcome == "dtx-aborted") {
        ++dtx_aborted_;
      } else {
        status = "wrong";
      }
    } else if (reply.result != op.expect) {
      status = "wrong";
    }
    finish(op, status);
    writes_.erase(it);
  }

  void on_read_reply(const net::ReadReply& reply) {
    const auto it = reads_.find(key_of(reply.client_id, reply.read_id));
    if (it == reads_.end()) {
      ++duplicates_;
      return;
    }
    Op& op = it->second;
    if (reply.status != net::ReplyStatus::kExecuted) {
      // Explicit refusal (no lease, no quorum): bounce to the next server.
      ++rejected_;
      op.server = (op.server + 1) % conns_.size();
      op.next_retry_ns = now_ns() + kReadBounceNs;
      return;
    }
    if (reply.value == op.expect) {
      ++reads_ok_;
      finish(op, "ok");
    } else {
      ++stale_;
      finish(op, "stale");
    }
    reads_.erase(it);
  }

  void read_ready(Conn& c) {
    std::uint8_t buf[64 * 1024];
    while (c.fd >= 0) {
      const ssize_t got = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (got <= 0) {
        close_conn(c);
        return;
      }
      c.decoder.feed(ByteSpan(buf, static_cast<std::size_t>(got)));
      net::Frame frame;
      while (c.decoder.next(frame) == net::FrameDecoder::Status::kFrame) {
        const ByteSpan body(frame.payload.data(), frame.payload.size());
        try {
          if (frame.tag == net::kClientReplyTag) {
            on_reply(net::ClientReply::decode(body));
          } else if (frame.tag == net::kClientReadReplyTag) {
            on_read_reply(net::ReadReply::decode(body));
          }
        } catch (const CodecError&) {
          ++garbled_;
        }
      }
      if (c.decoder.corrupted()) close_conn(c);
    }
  }

  /// One poll round: wait at most until `until_ns`, then read replies and
  /// resend anything whose retry time has come.
  void pump(std::uint64_t until_ns) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> index;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].fd < 0) continue;
      short events = POLLIN;
      if (conns_[i].out_off < conns_[i].out.size()) events |= POLLOUT;
      fds.push_back(pollfd{conns_[i].fd, events, 0});
      index.push_back(i);
    }
    const std::uint64_t now = now_ns();
    const std::uint64_t wait = until_ns > now ? until_ns - now : 0;
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(wait % 1'000'000'000);
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) > 0) {
      for (std::size_t k = 0; k < fds.size(); ++k) {
        Conn& c = conns_[index[k]];
        if ((fds[k].revents & POLLOUT) != 0) flush(c);
        if ((fds[k].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
          read_ready(c);
        }
      }
    }
    const std::uint64_t after = now_ns();
    if (after < next_retry_scan_) return;
    next_retry_scan_ = after + 10'000'000;
    for (auto& [key, op] : writes_) {
      if (after < op.next_retry_ns) continue;
      ++retries_;
      op.next_retry_ns = after + kRetryNs;
      send_everywhere(op);
    }
    for (auto& [key, op] : reads_) {
      if (after < op.next_retry_ns) continue;
      ++retries_;
      op.next_retry_ns = after + kRetryNs;
      send_op(op, op.server);
    }
  }

  // ---- phases ----

  bool probe() {
    const std::uint64_t deadline = now_ns() + kConnectNs;
    for (shard::ShardId s = 0; s < opt_.shards; ++s) {
      for (std::uint64_t nonce = 0;; ++nonce) {
        Bytes payload = to_bytes("probe" + std::to_string(opt_.seed) + "-" +
                                 std::to_string(nonce));
        if (shard::shard_of(map_, ByteSpan(payload.data(), payload.size())) ==
            s) {
          probe_keys_.push_back(payload);
          Op op = make_write(kProbeClient, s + 1, std::move(payload));
          op.session = kNoSession;
          start_op(std::move(op), now_ns(), false);
          break;
        }
      }
    }
    while (!writes_.empty() && now_ns() < deadline) {
      pump(now_ns() + 5'000'000);
    }
    if (!writes_.empty()) return false;
    if (opt_.reads_per_write > 0) {
      Op op = make_read(kProbeClient, 1, probe_keys_.front());
      op.session = kNoSession;
      start_op(std::move(op), now_ns(), false);
      while (!reads_.empty() && now_ns() < deadline) {
        pump(now_ns() + 5'000'000);
      }
      if (!reads_.empty() || reads_ok_ == 0) return false;
      reads_ok_ = 0;
    }
    completed_sessions_.clear();
    return writes_ok_ == opt_.shards;
  }

  void measure() {
    const std::uint64_t start = now_ns();
    t0_ = start + static_cast<std::uint64_t>(opt_.warmup * 1e9);
    t_end_ = t0_ + static_cast<std::uint64_t>(opt_.seconds * 1e9);
    std::vector<std::uint64_t> free_sessions;
    const auto new_session = [this] {
      Session s;
      s.client = kFirstSessionClient + sessions_.size();
      sessions_.push_back(std::move(s));
      return sessions_.size() - 1;
    };

    if (opt_.open_loop) {
      // A Poisson process conditioned on its count: rate × duration
      // arrival times drawn uniformly over warm-up plus window, in order.
      // The offered load is then exactly the stated rate, and only the
      // timing is random.
      const auto arrivals = static_cast<std::size_t>(
          std::llround(opt_.rate * (opt_.warmup + opt_.seconds)));
      std::uniform_int_distribution<std::uint64_t> at(start, t_end_ - 1);
      std::vector<std::uint64_t> schedule;
      for (std::size_t i = 0; i < arrivals; ++i) {
        schedule.push_back(at(rng_));
      }
      std::sort(schedule.begin(), schedule.end());
      schedule.push_back(t_end_);  // sentinel
      std::size_t next = 0;
      while (now_ns() < t_end_) {
        while (schedule[next] <= now_ns() && schedule[next] < t_end_) {
          for (const std::uint64_t done : completed_sessions_) {
            free_sessions.push_back(done);
          }
          completed_sessions_.clear();
          std::uint64_t index = 0;
          if (free_sessions.empty()) {
            index = new_session();
          } else {
            index = free_sessions.back();
            free_sessions.pop_back();
          }
          issue_next(index, schedule[next]);
          ++next;
        }
        pump(schedule[next]);
      }
    } else {
      // Sessions join at seeded times spread over the warm-up: a
      // simultaneous start lets one replica fall behind for the rest of
      // the run more often, which changes what the run measures.
      std::uniform_int_distribution<std::uint64_t> jitter(
          0, std::max<std::uint64_t>(t0_ - start, 100'000'000));
      std::vector<std::pair<std::uint64_t, std::uint64_t>> starts;
      for (std::uint64_t i = 0; i < opt_.sessions; ++i) {
        starts.emplace_back(start + jitter(rng_), new_session());
      }
      std::sort(starts.begin(), starts.end());
      std::size_t started = 0;
      while (now_ns() < t_end_) {
        const std::uint64_t now = now_ns();
        while (started < starts.size() && starts[started].first <= now) {
          issue_next(starts[started].second, now);
          ++started;
        }
        // Completed sessions go straight on; reads keyed by the write
        // that just finished come first.
        std::vector<std::uint64_t> ready;
        ready.swap(completed_sessions_);
        for (const std::uint64_t index : ready) issue_next(index, now_ns());
        const std::uint64_t next_start =
            started < starts.size() ? starts[started].first : t_end_;
        pump(ready.empty() ? std::min(next_start, t_end_) : now_ns());
      }
    }
    completed_sessions_.clear();
    const std::uint64_t drain_deadline = t_end_ + kDrainNs;
    while ((!writes_.empty() || !reads_.empty()) &&
           now_ns() < drain_deadline) {
      pump(now_ns() + 5'000'000);
      completed_sessions_.clear();
    }
    for (auto* table : {&writes_, &reads_}) {
      for (auto& [key, op] : *table) finish(op, "timeout");
      table->clear();
    }
  }

  void print_summary(std::uint64_t setup_done) const {
    std::printf(
        "{\"setup_ns\": %llu, \"t0_ns\": %llu, \"t_end_ns\": %llu, "
        "\"attempted\": %llu, \"failed\": %llu, \"writes_ok\": %llu, "
        "\"reads_ok\": %llu, \"stale\": %llu, \"dtx_committed\": %llu, "
        "\"dtx_aborted\": %llu, \"retries\": %llu, \"rejected\": %llu, "
        "\"duplicates\": %llu, \"garbled\": %llu, \"sessions\": %llu, "
        "\"lag_samples\": %llu, \"lag_p99_ns\": %llu, \"ok_total\": %llu, "
        "\"unmeasured_failed\": %llu, \"payload_bytes_mean\": %.3f}\n",
        static_cast<unsigned long long>(setup_done - opt_.launch_ns),
        static_cast<unsigned long long>(t0_),
        static_cast<unsigned long long>(t_end_),
        static_cast<unsigned long long>(attempted_),
        static_cast<unsigned long long>(failed_),
        static_cast<unsigned long long>(writes_ok_),
        static_cast<unsigned long long>(reads_ok_),
        static_cast<unsigned long long>(stale_),
        static_cast<unsigned long long>(dtx_committed_),
        static_cast<unsigned long long>(dtx_aborted_),
        static_cast<unsigned long long>(retries_),
        static_cast<unsigned long long>(rejected_),
        static_cast<unsigned long long>(duplicates_),
        static_cast<unsigned long long>(garbled_),
        static_cast<unsigned long long>(sessions_.size()),
        static_cast<unsigned long long>(lags_.size()),
        static_cast<unsigned long long>(lag_p99()),
        static_cast<unsigned long long>(ok_total_),
        static_cast<unsigned long long>(unmeasured_failed_),
        commands_ok_ == 0 ? 0.0
                          : static_cast<double>(command_bytes_) /
                                static_cast<double>(commands_ok_));
    std::fflush(stdout);
  }

  [[nodiscard]] std::uint64_t lag_p99() const {
    if (lags_.empty()) return 0;
    std::vector<std::uint64_t> sorted = lags_;
    std::sort(sorted.begin(), sorted.end());
    return sorted[std::min(sorted.size() - 1,
                           static_cast<std::size_t>(
                               0.99 * static_cast<double>(sorted.size())))];
  }

  bool write_records() const {
    if (opt_.records.empty()) return true;
    std::FILE* out = std::fopen(opt_.records.c_str(), "w");
    if (out == nullptr) return false;
    for (const Record& r : records_) {
      std::fprintf(out, "%c %llu %llu %llu %llu %llu %s\n",
                   static_cast<char>(r.kind),
                   static_cast<unsigned long long>(r.client),
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.due),
                   static_cast<unsigned long long>(r.sent),
                   static_cast<unsigned long long>(r.done), r.status);
    }
    return std::fclose(out) == 0;
  }

  static constexpr std::uint64_t kNoSession = ~std::uint64_t{0};

  Options opt_;
  std::mt19937_64 rng_;
  std::uniform_int_distribution<std::uint32_t> dtx_pick_{
      0, opt_.dtx_every > 0 ? opt_.dtx_every - 1 : 0};
  shard::ShardMap map_;
  std::vector<Conn> conns_;
  std::vector<Session> sessions_;
  std::vector<std::uint64_t> completed_sessions_;
  std::unordered_map<std::uint64_t, Op> writes_;
  std::unordered_map<std::uint64_t, Op> reads_;
  std::vector<Bytes> probe_keys_;
  std::vector<Record> records_;
  std::vector<std::uint64_t> lags_;
  std::uint64_t t0_ = 0, t_end_ = 0, next_retry_scan_ = 0;
  std::uint64_t attempted_ = 0, failed_ = 0, writes_ok_ = 0, reads_ok_ = 0;
  std::uint64_t stale_ = 0, dtx_committed_ = 0, dtx_aborted_ = 0;
  std::uint64_t retries_ = 0, rejected_ = 0, duplicates_ = 0, garbled_ = 0;
  // Every operation answered ok (probes and warm-up included: the CPU
  // the replicas spent covers them too), and warm-up or probe failures.
  std::uint64_t ok_total_ = 0, unmeasured_failed_ = 0;
  // Payload bytes of every write and dtx answered ok: the size of the
  // commands the replicas log.
  std::uint64_t commands_ok_ = 0, command_bytes_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse_args(argc, argv, opt)) {
      std::fprintf(stderr,
                   "usage: perf_loadgen --servers host:port,... --seed N "
                   "--seconds S [--warmup W] --launch-ns T --records FILE "
                   "[--mode open|closed] [--rate R] [--sessions C] "
                   "[--shards S] [--reads-per-write K] [--dtx-every D]\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad argument: %s\n", e.what());
    return 2;
  }
  Generator gen(std::move(opt));
  return gen.run();
}

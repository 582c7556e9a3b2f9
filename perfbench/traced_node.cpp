// Traced replica driver for the wall-clock cluster benchmark
// (perfbench/run.py --trace 1).
//
//   perf_node --id I --peers host:port,... --client-port P --spans FILE
//       [--f F] [--l L] [--wal-dir DIR]
//       [--shards S] [--reads BOOL] [--run-ms MS]
//
// Serves the same client protocol as examples/probft_node in its --smr
// mode, composed from the same public pieces (sim::make_smr_node or
// shard::ShardedSmr, net::TcpTransport, store::Wal) at probft_node's
// defaults, and records spans at every layer boundary it can reach from
// outside the library:
//
//  - crypto: a timing decorator around the Ed25519 + ECVRF
//    crypto::CryptoSuite (the suite the benchmark runs probft_node with),
//    passed in as the replica's suite (calls and time per primitive);
//  - core: time inside on_message, minus the crypto time it covers;
//  - smr: the core::ProtocolHost send / broadcast / set_timer / on_commit
//    callbacks (first proposal send per slot, lease / read-index /
//    view-change / state-transfer message counts, commit time per
//    executed request);
//  - net: ClientRequest::decode, ClientReply::encode and the hand-off to
//    send_to_client, with per-request intake and reply timestamps;
//  - shard: dtx submit → completion.
//
// Spans stay in memory; on SIGTERM the driver prints probft_node's
// SMRLOG / DTX lines and writes --spans:
//   AGG <json object of counters>
//   R <client> <seq> <intake_ns>               request intake
//   P <shard> <slot> <ns>                      first proposal send
//   E <shard> <client> <seq> <slot> <commit_ns> <exec_ns>
//   Y <client> <seq> <ns>                      reply to send_to_client
// Timestamps are CLOCK_MONOTONIC ns, comparable with the generator's.
// The store layer is not wrapped here: the replica calls its WAL
// internally; perf_walbench times it instead.
#include <csignal>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/codec.hpp"
#include "common/rng.hpp"
#include "net/client.hpp"
#include "net/tags.hpp"
#include "net/tcp_transport.hpp"
#include "shard/dtx.hpp"
#include "shard/sharded_smr.hpp"
#include "sim/node_factory.hpp"
#include "store/wal.hpp"

namespace {

using namespace probft;

std::uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000 +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

struct Counter {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

struct RequestSpan {
  std::uint64_t client, seq, intake_ns;
};
struct ExecSpan {
  std::uint32_t shard;
  std::uint64_t client, seq, slot, commit_ns, exec_ns;
};
struct ReplySpan {
  std::uint64_t client, seq, ns;
};

/// Everything the driver records. The replica, transport callbacks and
/// suite all run on the one event-loop thread (no verify pool, no
/// executor offload — probft_node's defaults), so plain fields suffice.
struct Trace {
  Counter sign, verify, verify_batch, vrf_prove, vrf_verify;
  std::uint64_t crypto_ns = 0;  // running total, for self-time subtraction
  Counter on_message;
  std::uint64_t on_message_crypto_ns = 0;
  Counter timer_cb;
  std::uint64_t timer_cb_crypto_ns = 0;
  Counter client_decode, submit_request, submit_read, on_execute;
  Counter reply_encode, send_to_client;
  Counter read;  // submit_read → its callback
  std::uint64_t read_rejected = 0;
  std::uint64_t lease_msgs = 0, readindex_msgs = 0, view_change_msgs = 0;
  std::uint64_t state_msgs = 0;
  std::uint64_t last_commit_ns = 0;
  std::vector<RequestSpan> requests;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> proposals;
  std::vector<ExecSpan> execs;
  std::vector<ReplySpan> replies;
  std::map<std::uint64_t, std::uint64_t> dtx_started;  // txid → ns
  std::vector<std::uint64_t> dtx_ns;
};

Trace g_trace;

/// Adds the scope's duration to `counter` (and, for crypto, to the
/// running crypto total that parent spans subtract).
class Span {
 public:
  explicit Span(Counter& counter, bool crypto = false)
      : counter_(counter), crypto_(crypto), start_(now_ns()) {}
  ~Span() {
    const std::uint64_t d = now_ns() - start_;
    ++counter_.calls;
    counter_.ns += d;
    if (crypto_) g_trace.crypto_ns += d;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Counter& counter_;
  bool crypto_;
  std::uint64_t start_;
};

/// Timing decorator: forwards every call to the real suite.
class TimedSuite final : public crypto::CryptoSuite {
 public:
  explicit TimedSuite(std::unique_ptr<crypto::CryptoSuite> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] crypto::KeyPair keygen(std::uint64_t seed) const override {
    return inner_->keygen(seed);
  }
  [[nodiscard]] Bytes sign(ByteSpan secret_key,
                           ByteSpan message) const override {
    const Span span(g_trace.sign, true);
    return inner_->sign(secret_key, message);
  }
  [[nodiscard]] bool verify(ByteSpan public_key, ByteSpan message,
                            ByteSpan signature) const override {
    const Span span(g_trace.verify, true);
    return inner_->verify(public_key, message, signature);
  }
  [[nodiscard]] bool verify_batch(
      const std::vector<crypto::SigCheck>& checks) const override {
    const Span span(g_trace.verify_batch, true);
    return inner_->verify_batch(checks);
  }
  [[nodiscard]] crypto::VrfResult vrf_prove(ByteSpan secret_key,
                                            ByteSpan alpha) const override {
    const Span span(g_trace.vrf_prove, true);
    return inner_->vrf_prove(secret_key, alpha);
  }
  [[nodiscard]] std::optional<Bytes> vrf_verify(
      ByteSpan public_key, ByteSpan alpha, ByteSpan proof) const override {
    const Span span(g_trace.vrf_verify, true);
    return inner_->vrf_verify(public_key, alpha, proof);
  }

 private:
  std::unique_ptr<crypto::CryptoSuite> inner_;
};

/// Classifies one outbound replica message: first proposal per
/// (shard, slot), lease / read-index / view-change traffic. `copies` is
/// 1 for a send and n - 1 for a broadcast.
void note_outbound(std::uint8_t tag, const Bytes& m, std::uint64_t copies) {
  std::uint32_t shard = 0;
  Reader r(ByteSpan(m.data(), m.size()));
  try {
    if (tag == net::tags::kShard) {
      shard = r.u32();
      tag = r.u8();
    }
    if (tag == net::tags::kSmrLease) {
      g_trace.lease_msgs += copies;
    } else if (tag == net::tags::kSmrReadIndex) {
      g_trace.readindex_msgs += copies;
    } else if (tag == net::tags::kSmrState) {
      g_trace.state_msgs += copies;
    } else if (tag == net::tags::kSmr) {
      const std::uint64_t slot = r.u64();
      const std::uint8_t inner = r.u8();
      if (inner == net::tags::kPropose) {
        g_trace.proposals.emplace(std::make_pair(shard, slot), now_ns());
      } else if (inner == net::tags::kNewLeader ||
                 inner == net::tags::kWish) {
        g_trace.view_change_msgs += copies;
      }
    }
  } catch (const CodecError&) {
    // Not an envelope this driver understands: counted by the transport.
  }
}

core::ProtocolHost traced_host(core::ProtocolHost base, std::uint32_t n) {
  core::ProtocolHost host;
  host.send = [send = base.send](ReplicaId to, std::uint8_t tag,
                                 const Bytes& m) {
    note_outbound(tag, m, 1);
    send(to, tag, m);
  };
  host.broadcast = [broadcast = base.broadcast, n](std::uint8_t tag,
                                                   const Bytes& m) {
    note_outbound(tag, m, n - 1);
    broadcast(tag, m);
  };
  host.set_timer = [set_timer = base.set_timer](Duration delay,
                                                std::function<void()> fn) {
    set_timer(delay, [fn = std::move(fn)] {
      const std::uint64_t crypto_before = g_trace.crypto_ns;
      {
        const Span span(g_trace.timer_cb);
        fn();
      }
      g_trace.timer_cb_crypto_ns += g_trace.crypto_ns - crypto_before;
    });
  };
  host.on_commit = [](std::uint64_t /*index*/, const Bytes& /*payload*/) {
    g_trace.last_commit_ns = now_ns();
  };
  return host;
}

template <typename Node>
void traced_on_message(Node& node, ReplicaId from, std::uint8_t tag,
                       const Bytes& m) {
  const std::uint64_t crypto_before = g_trace.crypto_ns;
  {
    const Span span(g_trace.on_message);
    node.on_message(from, tag, m);
  }
  g_trace.on_message_crypto_ns += g_trace.crypto_ns - crypto_before;
}

void send_reply(net::TcpTransport& transport, std::uint64_t conn,
                const net::ClientReply& reply) {
  Bytes frame;
  {
    const Span span(g_trace.reply_encode);
    frame = reply.encode();
  }
  g_trace.replies.push_back(ReplySpan{reply.client_id, reply.seq, now_ns()});
  const Span span(g_trace.send_to_client);
  transport.send_to_client(conn, net::kClientReplyTag, frame);
}

/// Shared read-path plumbing: submit_read with a timed callback that
/// answers on the same connection.
template <typename Node>
void serve_read(Node& node, net::TcpTransport& transport, std::uint64_t conn,
                const net::ReadRequest& read) {
  const std::uint64_t start = now_ns();
  const Span span(g_trace.submit_read);
  node.submit_read(
      read.key, read.consistency, read.min_index,
      [&transport, conn, start, client_id = read.client_id,
       read_id = read.read_id](const smr::SmrReplica::ReadResult& r) {
        ++g_trace.read.calls;
        g_trace.read.ns += now_ns() - start;
        if (r.status != net::ReplyStatus::kExecuted) ++g_trace.read_rejected;
        net::ReadReply reply;
        reply.client_id = client_id;
        reply.read_id = read_id;
        reply.status = r.status;
        reply.slot = r.slot;
        reply.index = r.index;
        reply.value = r.value;
        transport.send_to_client(conn, net::kClientReadReplyTag,
                                 reply.encode());
      });
}

struct Options {
  ReplicaId id = 0;
  std::vector<net::PeerAddress> peers;
  std::uint16_t client_port = 0;
  std::uint32_t f = 0;
  double l = 2.0;
  std::string wal_dir;
  std::uint32_t shards = 1;
  bool reads = false;
  std::uint64_t run_ms = 30'000;
  std::string spans;
};

net::PeerAddress parse_host_port(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    throw std::invalid_argument("peer must be host:port: " + text);
  }
  return net::PeerAddress{
      text.substr(0, colon),
      static_cast<std::uint16_t>(std::stoul(text.substr(colon + 1)))};
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (key == "--id") {
      opt.id = static_cast<ReplicaId>(std::stoul(value));
    } else if (key == "--peers") {
      std::size_t pos = 0;
      while (pos < value.size()) {
        const std::size_t comma = value.find(',', pos);
        opt.peers.push_back(parse_host_port(value.substr(pos, comma - pos)));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (key == "--client-port") {
      opt.client_port = static_cast<std::uint16_t>(std::stoul(value));
    } else if (key == "--f") {
      opt.f = static_cast<std::uint32_t>(std::stoul(value));
    } else if (key == "--l") {
      opt.l = std::stod(value);
    } else if (key == "--wal-dir") {
      opt.wal_dir = value;
    } else if (key == "--shards") {
      opt.shards = static_cast<std::uint32_t>(std::stoul(value));
    } else if (key == "--reads") {
      opt.reads = value == "1" || value == "true";
    } else if (key == "--run-ms") {
      opt.run_ms = std::stoull(value);
    } else if (key == "--spans") {
      opt.spans = value;
    } else {
      return false;
    }
  }
  return opt.id >= 1 && opt.id <= opt.peers.size() && opt.client_port != 0 &&
         opt.shards >= 1 && opt.shards <= shard::kMaxShards &&
         !opt.spans.empty();
}

net::TcpTransport* g_transport = nullptr;

extern "C" void handle_stop_signal(int /*sig*/) {
  if (g_transport != nullptr) g_transport->stop();
}

void write_counter(std::FILE* out, const char* name, const Counter& c,
                   bool& first) {
  std::fprintf(out, "%s\"%s.calls\": %llu, \"%s.ns\": %llu", first ? "" : ", ",
               name, static_cast<unsigned long long>(c.calls), name,
               static_cast<unsigned long long>(c.ns));
  first = false;
}

bool write_spans(const std::string& path, std::uint64_t ops,
                 const std::vector<std::uint64_t>& group_slots) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const Trace& t = g_trace;
  std::fprintf(out, "AGG {");
  bool first = true;
  const std::pair<const char*, const Counter*> counters[] = {
      {"sign", &t.sign},
      {"verify", &t.verify},
      {"verify_batch", &t.verify_batch},
      {"vrf_prove", &t.vrf_prove},
      {"vrf_verify", &t.vrf_verify},
      {"on_message", &t.on_message},
      {"timer_cb", &t.timer_cb},
      {"client_decode", &t.client_decode},
      {"submit_request", &t.submit_request},
      {"submit_read", &t.submit_read},
      {"on_execute", &t.on_execute},
      {"reply_encode", &t.reply_encode},
      {"send_to_client", &t.send_to_client},
      {"read", &t.read},
  };
  for (const auto& [name, counter] : counters) {
    write_counter(out, name, *counter, first);
  }
  std::fprintf(out,
               ", \"on_message_crypto_ns\": %llu, \"timer_cb_crypto_ns\": %llu"
               ", \"read_rejected\": %llu, \"lease_msgs\": %llu"
               ", \"readindex_msgs\": %llu, \"view_change_msgs\": %llu"
               ", \"state_msgs\": %llu"
               ", \"executed\": %llu, \"group_slots\": [",
               static_cast<unsigned long long>(t.on_message_crypto_ns),
               static_cast<unsigned long long>(t.timer_cb_crypto_ns),
               static_cast<unsigned long long>(t.read_rejected),
               static_cast<unsigned long long>(t.lease_msgs),
               static_cast<unsigned long long>(t.readindex_msgs),
               static_cast<unsigned long long>(t.view_change_msgs),
               static_cast<unsigned long long>(t.state_msgs),
               static_cast<unsigned long long>(ops));
  for (std::size_t i = 0; i < group_slots.size(); ++i) {
    std::fprintf(out, "%s%llu", i == 0 ? "" : ", ",
                 static_cast<unsigned long long>(group_slots[i]));
  }
  std::fprintf(out, "], \"dtx_ns\": [");
  for (std::size_t i = 0; i < t.dtx_ns.size(); ++i) {
    std::fprintf(out, "%s%llu", i == 0 ? "" : ", ",
                 static_cast<unsigned long long>(t.dtx_ns[i]));
  }
  std::fprintf(out, "]}\n");
  for (const RequestSpan& r : t.requests) {
    std::fprintf(out, "R %llu %llu %llu\n",
                 static_cast<unsigned long long>(r.client),
                 static_cast<unsigned long long>(r.seq),
                 static_cast<unsigned long long>(r.intake_ns));
  }
  for (const auto& [key, ns] : t.proposals) {
    std::fprintf(out, "P %u %llu %llu\n", key.first,
                 static_cast<unsigned long long>(key.second),
                 static_cast<unsigned long long>(ns));
  }
  for (const ExecSpan& e : t.execs) {
    std::fprintf(out, "E %u %llu %llu %llu %llu %llu\n", e.shard,
                 static_cast<unsigned long long>(e.client),
                 static_cast<unsigned long long>(e.seq),
                 static_cast<unsigned long long>(e.slot),
                 static_cast<unsigned long long>(e.commit_ns),
                 static_cast<unsigned long long>(e.exec_ns));
  }
  for (const ReplySpan& y : t.replies) {
    std::fprintf(out, "Y %llu %llu %llu\n",
                 static_cast<unsigned long long>(y.client),
                 static_cast<unsigned long long>(y.seq),
                 static_cast<unsigned long long>(y.ns));
  }
  return std::fclose(out) == 0;
}

void print_smrlog(ReplicaId id, const smr::SmrReplica& group,
                  const std::string& shard_field) {
  std::printf("SMRLOG id=%u%s slots=%llu base=%llu cmds=%llu digest=%s\n", id,
              shard_field.c_str(),
              static_cast<unsigned long long>(group.committed_slots()),
              static_cast<unsigned long long>(group.log_base()),
              static_cast<unsigned long long>(group.executed_commands()),
              group.log_digest().c_str());
}

/// Routes an executed request's reply to the connection that sent it,
/// and keeps the per-client last reply for retries of executed requests.
class ReplyRouter {
 public:
  explicit ReplyRouter(net::TcpTransport& transport) : transport_(transport) {}

  void wait(std::uint64_t client, std::uint64_t seq, std::uint64_t conn) {
    waiting_[{client, seq}] = conn;
  }
  void route(const net::ClientReply& reply) {
    const auto it = waiting_.find({reply.client_id, reply.seq});
    if (it != waiting_.end()) {
      send_reply(transport_, it->second, reply);
      waiting_.erase(it);
    }
    last_reply_[reply.client_id] = reply;
  }
  /// Answers a retry of an already-executed request from the cache.
  void answer_retry(std::uint64_t conn, std::uint64_t client,
                    std::uint64_t seq) {
    const auto cached = last_reply_.find(client);
    if (cached != last_reply_.end() && cached->second.seq == seq) {
      send_reply(transport_, conn, cached->second);
    }
  }
  void reject(std::uint64_t conn, std::uint64_t client, std::uint64_t seq) {
    net::ClientReply reply;
    reply.client_id = client;
    reply.seq = seq;
    reply.status = net::ReplyStatus::kRejected;
    transport_.send_to_client(conn, net::kClientReplyTag, reply.encode());
  }

 private:
  net::TcpTransport& transport_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> waiting_;
  std::map<std::uint64_t, net::ClientReply> last_reply_;
};

/// Decodes a client frame under the decode span; nullopt on a malformed
/// frame (dropped, as probft_node does).
template <typename Message>
std::optional<Message> decode_client(const Bytes& payload) {
  const Span span(g_trace.client_decode);
  try {
    return Message::decode(ByteSpan(payload.data(), payload.size()));
  } catch (const CodecError&) {
    return std::nullopt;
  }
}

int run_single_group(const Options& opt, net::TcpTransport& transport,
                     sim::NodeParams params, store::Wal* wal) {
  params.wal = wal;
  params.smr.serve_reads = opt.reads;
  ReplyRouter router(transport);
  params.on_execute = [&router](const smr::ExecutedCommand& cmd) {
    const Span span(g_trace.on_execute);
    g_trace.execs.push_back(ExecSpan{0, cmd.client, cmd.seq, cmd.slot,
                                     g_trace.last_commit_ns, now_ns()});
    net::ClientReply reply;
    reply.client_id = cmd.client;
    reply.seq = cmd.seq;
    reply.slot = cmd.slot;
    reply.result = cmd.payload;
    router.route(reply);
  };
  const std::unique_ptr<smr::SmrReplica> node = sim::make_smr_node(
      params, traced_host(sim::transport_host(transport, opt.id,
                                              transport.timer_setter()),
                          params.n));
  transport.register_handler(
      opt.id, [&node](ReplicaId from, std::uint8_t tag, const Bytes& m) {
        traced_on_message(*node, from, tag, m);
      });
  transport.set_client_handler([&](std::uint64_t conn, std::uint8_t tag,
                                   const Bytes& payload) {
    const std::uint64_t intake = now_ns();
    if (tag == net::kClientReadTag) {
      if (const auto read = decode_client<net::ReadRequest>(payload)) {
        serve_read(*node, transport, conn, *read);
      }
      return;
    }
    if (tag != net::kClientRequestTag) return;
    const auto request = decode_client<net::ClientRequest>(payload);
    if (!request) return;
    g_trace.requests.push_back(
        RequestSpan{request->client_id, request->seq, intake});
    if (request->seq <= node->last_executed_seq(request->client_id)) {
      router.answer_retry(conn, request->client_id, request->seq);
      return;
    }
    bool accepted = false;
    {
      const Span span(g_trace.submit_request);
      accepted = node->submit_request(request->client_id, request->seq,
                                      request->payload);
    }
    if (accepted || node->has_pending(request->client_id, request->seq)) {
      router.wait(request->client_id, request->seq, conn);
    } else {
      router.reject(conn, request->client_id, request->seq);
    }
  });
  node->start();
  transport.run_until(nullptr, opt.run_ms * 1000);
  if (wal != nullptr) wal->sync();
  print_smrlog(opt.id, *node, "");
  std::fflush(stdout);
  return write_spans(opt.spans, node->executed_commands(),
                     {node->committed_slots()})
             ? 0
             : 1;
}

int run_sharded(const Options& opt, net::TcpTransport& transport,
                const sim::NodeParams& params,
                const std::vector<store::Wal*>& wals) {
  ReplyRouter router(transport);
  // Declared before the coordinator, which holds a reference to it.
  std::unique_ptr<shard::ShardedSmr> node;
  std::unique_ptr<shard::DtxCoordinator> dtx;
  shard::ShardedSmrConfig sc;
  sc.base.id = params.id;
  sc.base.n = params.n;
  sc.base.f = params.f;
  sc.base.o = params.o;
  sc.base.l = params.l;
  sc.base.pipeline = params.smr;
  sc.base.pipeline.serve_reads = opt.reads;
  sc.base.fast_verify = params.fast_verify;
  sc.base.suite = params.suite;
  sc.base.secret_key = params.secret_key;
  sc.base.public_keys = params.public_keys;
  sc.base.sync = params.sync;
  sc.map.version = 1;
  sc.map.shard_count = opt.shards;
  sc.wals = wals;
  sc.on_execute = [&dtx, &router](shard::ShardId s,
                                  const smr::ExecutedCommand& cmd) {
    const Span span(g_trace.on_execute);
    // ShardedSmr's group hosts carry no on_commit: commit time here is
    // the execute upcall itself.
    const std::uint64_t now = now_ns();
    g_trace.execs.push_back(ExecSpan{s, cmd.client, cmd.seq, cmd.slot, now,
                                     now});
    if (dtx) dtx->on_execute(s, cmd);
    if (cmd.payload.size() >= 4 && cmd.payload[0] == 'D' &&
        cmd.payload[1] == 'X') {
      return;  // dtx bookkeeping entry, answered via on_complete
    }
    net::ClientReply reply;
    reply.client_id = cmd.client;
    reply.seq = cmd.seq;
    reply.slot = cmd.slot;
    reply.result = cmd.payload;
    router.route(reply);
  };
  try {
    node = std::make_unique<shard::ShardedSmr>(
        std::move(sc),
        traced_host(sim::transport_host(transport, opt.id,
                                        transport.timer_setter()),
                    params.n));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot start sharded service: %s\n", e.what());
    return 1;
  }
  dtx = std::make_unique<shard::DtxCoordinator>(*node,
                                                transport.timer_setter());
  dtx->set_on_complete([&router](std::uint64_t txid, bool committed,
                                 std::uint64_t origin_client,
                                 std::uint64_t origin_seq) {
    const auto started = g_trace.dtx_started.find(txid);
    if (started != g_trace.dtx_started.end()) {
      g_trace.dtx_ns.push_back(now_ns() - started->second);
      g_trace.dtx_started.erase(started);
    }
    if (origin_client == 0) return;
    net::ClientReply reply;
    reply.client_id = origin_client;
    reply.seq = origin_seq;
    reply.result = to_bytes(committed ? "dtx-committed" : "dtx-aborted");
    router.route(reply);
  });
  transport.register_handler(
      opt.id, [&node](ReplicaId from, std::uint8_t tag, const Bytes& m) {
        traced_on_message(*node, from, tag, m);
      });
  transport.set_client_handler([&](std::uint64_t conn, std::uint8_t tag,
                                   const Bytes& payload) {
    const std::uint64_t intake = now_ns();
    if (tag == net::kClientReadTag) {
      if (const auto read = decode_client<net::ReadRequest>(payload)) {
        serve_read(*node, transport, conn, *read);
      }
      return;
    }
    if (tag != net::kClientRequestTag) return;
    const auto request = decode_client<net::ClientRequest>(payload);
    if (!request) return;
    g_trace.requests.push_back(
        RequestSpan{request->client_id, request->seq, intake});
    if (shard::DtxCoordinator::is_dtx_request(request->payload)) {
      const std::uint64_t txid = shard::DtxCoordinator::txid_of(
          request->client_id, request->seq, request->payload);
      if (const auto done = dtx->completed_status(txid)) {
        net::ClientReply reply;
        reply.client_id = request->client_id;
        reply.seq = request->seq;
        reply.result = to_bytes(*done ? "dtx-committed" : "dtx-aborted");
        send_reply(transport, conn, reply);
        return;
      }
      g_trace.dtx_started.emplace(txid, intake);
      const Span span(g_trace.submit_request);
      if (dtx->submit(request->client_id, request->seq, request->payload)) {
        router.wait(request->client_id, request->seq, conn);
      }
      return;
    }
    const shard::ShardId s = node->placement().shard_of(
        ByteSpan(request->payload.data(), request->payload.size()));
    const smr::SmrReplica& group = node->group(s);
    if (request->seq <= group.last_executed_seq(request->client_id)) {
      router.answer_retry(conn, request->client_id, request->seq);
      return;
    }
    bool accepted = false;
    {
      const Span span(g_trace.submit_request);
      accepted = node->submit_request(request->client_id, request->seq,
                                      request->payload);
    }
    if (accepted || group.has_pending(request->client_id, request->seq)) {
      router.wait(request->client_id, request->seq, conn);
    } else {
      router.reject(conn, request->client_id, request->seq);
    }
  });
  node->start();
  transport.run_until(nullptr, opt.run_ms * 1000);
  for (store::Wal* wal : wals) wal->sync();
  std::vector<std::uint64_t> group_slots;
  for (shard::ShardId s = 0; s < node->shard_count(); ++s) {
    print_smrlog(opt.id, node->group(s), " shard=" + std::to_string(s));
    group_slots.push_back(node->group(s).committed_slots());
  }
  std::printf("DTX id=%u committed=%llu aborted=%llu in_flight=%llu\n",
              opt.id, static_cast<unsigned long long>(dtx->committed()),
              static_cast<unsigned long long>(dtx->aborted()),
              static_cast<unsigned long long>(dtx->in_flight()));
  std::fflush(stdout);
  return write_spans(opt.spans, node->executed_commands(), group_slots) ? 0
                                                                        : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse_args(argc, argv, opt)) {
      std::fprintf(stderr,
                   "usage: perf_node --id I --peers host:port,... "
                   "--client-port P --spans FILE [--f F] [--l L] "
                   "[--wal-dir DIR] [--shards S] "
                   "[--reads BOOL] [--run-ms MS]\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad argument: %s\n", e.what());
    return 2;
  }
  const auto n = static_cast<std::uint32_t>(opt.peers.size());

  // Key material exactly as probft_node derives it (default --seed 1).
  const TimedSuite suite(crypto::make_ed25519_suite());
  constexpr std::uint64_t kKeySeed = 1;
  std::vector<Bytes> key_table(n + 1);
  Bytes secret_key;
  for (ReplicaId id = 1; id <= n; ++id) {
    auto keys = suite.keygen(mix64(kKeySeed, id));
    key_table[id] = std::move(keys.public_key);
    if (id == opt.id) secret_key = std::move(keys.secret_key);
  }

  net::TcpTransportConfig tc;
  tc.self = opt.id;
  tc.n = n;
  tc.listen_host = opt.peers[opt.id - 1].host;
  tc.listen_port = opt.peers[opt.id - 1].port;
  for (ReplicaId id = 1; id <= n; ++id) tc.peers[id] = opt.peers[id - 1];
  tc.client_port_enabled = true;
  tc.client_listen_host = tc.listen_host;
  tc.client_listen_port = opt.client_port;
  std::unique_ptr<net::TcpTransport> transport;
  try {
    transport = std::make_unique<net::TcpTransport>(std::move(tc));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot start transport: %s\n", e.what());
    return 1;
  }
  g_transport = transport.get();
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);

  sim::NodeParams params;
  params.id = opt.id;
  params.n = n;
  params.f = opt.f;
  params.l = opt.l;
  params.suite = &suite;
  params.secret_key = secret_key;
  params.public_keys = crypto::PublicKeyDir(std::move(key_table));
  params.sync.base_timeout = 1'000'000;  // probft_node's view-1 timer

  std::vector<std::unique_ptr<store::Wal>> wals;
  std::vector<store::Wal*> wal_ptrs;
  if (!opt.wal_dir.empty()) {
    try {
      for (shard::ShardId s = 0; s < opt.shards; ++s) {
        const std::string dir =
            opt.shards == 1 ? opt.wal_dir
                            : opt.wal_dir + "/shard-" + std::to_string(s);
        wals.push_back(std::make_unique<store::Wal>(store::WalOptions{dir}));
        wal_ptrs.push_back(wals.back().get());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot open WAL under %s: %s\n",
                   opt.wal_dir.c_str(), e.what());
      return 1;
    }
  }
  if (opt.shards > 1) {
    return run_sharded(opt, *transport, params, wal_ptrs);
  }
  return run_single_group(opt, *transport, std::move(params),
                          wal_ptrs.empty() ? nullptr : wal_ptrs.front());
}

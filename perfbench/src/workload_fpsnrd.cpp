// `fpsnrd`: small fields through the daemon. An in-process service::Server
// on a unix socket (threads = nproc) serves min(4, nproc) blocking
// service::Client connections — a closed loop, one request in flight per
// connection, as a simulation rank holds one Client. A pass sends each of
// the 79 ATM-stand-in 2-D fields (180x360) once per engine {sz-lorenzo,
// interp} x target {60, 80 dB} in seeded order, dealt round-robin to the
// connections; every 5th request of a connection is a Decompress of an
// archive from one of that connection's earlier replies.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "fpsnr/service.h"
#include "fpsnr/session.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace svc = fpsnr::service;

struct Combo {
  const char* engine;
  double target;
};
constexpr Combo kCombos[] = {
    {"sz-lorenzo", 60.0}, {"interp", 60.0}, {"sz-lorenzo", 80.0}, {"interp", 80.0}};
constexpr std::size_t kDecompressEvery = 5;
constexpr std::size_t kKeptPerClient = 32;
constexpr std::size_t kByteCheckOneIn = 16;
/// Random block reads per pass, split evenly over the combos so the
/// median does not move with the engine mix of a seeded sample.
constexpr std::size_t kBlockReads = 16;
// The daemon's set-up is a few milliseconds, so it takes more repetitions
// than the other workloads for a steady median.
constexpr int kSetupReps = 181;

struct Job {
  std::size_t field = 0;
  std::size_t combo = 0;
};

svc::CompressSpec spec_for(const Combo& c, const fpsnr::data::Field& f) {
  svc::CompressSpec spec;
  spec.engine = c.engine;
  spec.mode = "fixed-psnr";
  spec.value = c.target;
  spec.dims = f.dims.extents;
  return spec;
}

/// A Compress reply the workload keeps: for Decompress requests, block
/// reads, byte-identity checks, accuracy and the replays.
struct Reply {
  Job job;
  std::vector<std::uint8_t> archive;
  double achieved_db = 0.0;
};

/// One connection's closed loop. Everything here is touched by the
/// connection's own thread only while a pass runs.
struct Connection {
  std::optional<svc::Client> client;
  Rng rng;
  std::size_t sent = 0;
  std::vector<Reply> kept;  ///< ring of recent replies (Decompress sources)
  std::size_t kept_next = 0;

  // Outputs of the current pass.
  std::vector<double> compress_s, decompress_s;
  double compress_bytes = 0.0, decompress_bytes = 0.0;
  std::vector<Reply> replies;           ///< every Compress reply
  std::vector<std::size_t> byte_check;  ///< indices into `replies`
  struct Decoded {
    std::size_t field;
    double recorded_db;
    fpsnr::Field values;
  };
  std::vector<Decoded> decoded;
  std::size_t attempted = 0;
  std::vector<std::string> failures;
  bool corrupt_next = false;
};

/// Weighted mean server-side compress latency (us) and the rejection count
/// from a Stats reply.
struct ServerStats {
  double latency_count = 0.0;
  double latency_total_us = 0.0;
  double rejected = 0.0;
};

ServerStats parse_stats(const std::string& text) {
  ServerStats s;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("latency_us{", 0) == 0) {
      double count = 0.0, mean = 0.0;
      const auto c = line.find("count=");
      const auto m = line.find("mean=");
      if (c != std::string::npos && m != std::string::npos) {
        count = std::stod(line.substr(c + 6));
        mean = std::stod(line.substr(m + 5));
      }
      s.latency_count += count;
      s.latency_total_us += count * mean;
    } else if (line.rfind("rejected_overloaded:", 0) == 0 ||
               line.rfind("rejected_deadline:", 0) == 0) {
      s.rejected += std::stod(line.substr(line.find(':') + 1));
    }
  }
  return s;
}

/// The daemon on its own thread; shut down and joined on every exit path.
class Daemon {
 public:
  Daemon(const std::string& path, std::size_t threads) : path_(path) {
    ::unlink(path_.c_str());
    svc::ServerOptions opts;
    opts.endpoint.socket_path = path_;
    opts.threads = threads;
    server_.emplace(std::move(opts));
    runner_ = std::thread([this] { server_->run(); });
  }
  ~Daemon() {
    server_->request_shutdown();
    runner_.join();
    ::unlink(path_.c_str());
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  svc::Endpoint endpoint() const { return svc::Endpoint{path_, 0}; }

 private:
  std::string path_;
  std::optional<svc::Server> server_;
  std::thread runner_;
};

void run_connection(Connection& c, const std::vector<Job>& jobs,
                    const std::vector<const fpsnr::data::Field*>& fields) {
  auto keep = [&c](const Reply& r) {
    if (c.kept.size() < kKeptPerClient) {
      c.kept.push_back(r);
    } else {
      c.kept[c.kept_next] = r;
      c.kept_next = (c.kept_next + 1) % kKeptPerClient;
    }
  };
  for (const Job& job : jobs) {
    if ((c.sent + 1) % kDecompressEvery == 0 && !c.kept.empty()) {
      const Reply& source = c.kept[c.rng() % c.kept.size()];
      std::vector<std::uint8_t> corrupted;
      std::span<const std::uint8_t> archive(source.archive);
      if (c.corrupt_next) {
        corrupted = corrupted_copy(source.archive);
        archive = corrupted;
        c.corrupt_next = false;
      }
      ++c.sent;
      ++c.attempted;
      try {
        Span s("client.decompress", next_op_id());
        auto field = c.client->decompress(archive);
        c.decompress_s.push_back(s.stop());
        c.decompress_bytes += static_cast<double>(field.size() * sizeof(float));
        c.decoded.push_back({source.job.field, source.achieved_db, std::move(field)});
      } catch (const std::exception& e) {
        c.failures.push_back("decompress of field " +
                             std::to_string(source.job.field) + " failed: " +
                             e.what());
      }
    }
    const fpsnr::data::Field& f = *fields[job.field];
    ++c.sent;
    ++c.attempted;
    try {
      Span s("client.compress", next_op_id());
      auto result = c.client->compress(f.span(), spec_for(kCombos[job.combo], f));
      c.compress_s.push_back(s.stop());
      c.compress_bytes += static_cast<double>(f.bytes());
      Reply reply{job, std::move(result.archive), result.achieved_psnr_db};
      keep(reply);
      if (c.rng() % kByteCheckOneIn == 0) c.byte_check.push_back(c.replies.size());
      c.replies.push_back(std::move(reply));
    } catch (const std::exception& e) {
      c.failures.push_back("compress of field " + std::to_string(job.field) +
                           " failed: " + e.what());
    }
  }
}

}  // namespace

void run_fpsnrd(const Options& o, RunOutput& out) {
  Tally& tally = out.tally;
  fpsnr::data::DatasetConfig config;
  config.scale = o.tiny ? 0.25 : 1.0;
  const auto atm = fpsnr::data::make_atm(config);
  std::vector<const fpsnr::data::Field*> fields;
  std::size_t values = 0;
  for (const auto& f : atm.fields) {
    fields.push_back(&f);
    values += f.size();
  }
  out.sizes["workload_fields"] = std::to_string(fields.size());
  out.sizes["workload_values"] = std::to_string(values);
  out.sizes["workload_bytes"] = std::to_string(values * sizeof(float));
  out.sizes["requests_per_pass"] = std::to_string(
      fields.size() * std::size(kCombos) * kDecompressEvery /
      (kDecompressEvery - 1));

  const std::size_t server_threads = host_cores();
  const std::size_t connections = bench_threads();
  out.sizes["server_threads"] = std::to_string(server_threads);
  out.sizes["connections"] = std::to_string(connections);
  auto socket_path = [&o](long id) {
    return o.work_dir + "/fpsnrd-" + std::to_string(id) + ".sock";
  };

  Rng rng(o.seed);
  std::vector<Job> jobs;
  for (std::size_t f = 0; f < fields.size(); ++f)
    for (std::size_t c = 0; c < std::size(kCombos); ++c) jobs.push_back({f, c});
  auto shuffled_jobs = [&] {
    std::vector<Job> order = jobs;
    std::shuffle(order.begin(), order.end(), rng);
    return order;
  };

  // The cold first operation is one Compress per combo of the first field
  // in the seeded order, so every engine's cold path is charged whatever
  // the seed.
  const std::size_t first_field = shuffled_jobs().front().field;
  const double setup_s = median_setup_seconds(
      kSetupReps,
      [&] {
        const double t0 = now_seconds();
        Daemon daemon(socket_path(::getpid()), server_threads);
        svc::Client client(daemon.endpoint());
        const auto& f = *fields[first_field];
        for (const Combo& c : kCombos)
          if (client.compress(f.span(), spec_for(c, f)).archive.empty())
            return -1.0;
        return now_seconds() - t0;
      },
      tally);

  Daemon daemon(socket_path(::getpid()), server_threads);
  std::vector<Connection> conns(connections);
  for (std::size_t i = 0; i < connections; ++i) {
    conns[i].client.emplace(daemon.endpoint());
    conns[i].rng.seed(o.seed * 1000003u + i);
  }
  conns[0].corrupt_next = o.inject_corruption;

  // In-process reference sessions, one per engine (byte-identity checks).
  std::vector<fpsnr::Session> reference;
  for (const Combo& c : kCombos) {
    fpsnr::SessionOptions so;
    so.threads = server_threads;
    so.engine = c.engine;
    reference.emplace_back(so);
  }
  const fpsnr::Session& reader = reference.front();

  Measured measured;
  std::vector<Reply> kept_replies;  // the first traced pass, for the replays
  std::vector<double> traced_compress_s;

  // One pass: the connections' closed loops, then (untimed) the checks and
  // (timed, in-process) the random block reads of this pass's archives.
  auto run_pass = [&](bool timed, bool accuracy, bool keep) {
    const std::vector<Job> order = shuffled_jobs();
    std::vector<std::vector<Job>> dealt(connections);
    for (std::size_t k = 0; k < order.size(); ++k)
      dealt[k % connections].push_back(order[k]);
    for (Connection& c : conns) {
      c.compress_s.clear();
      c.decompress_s.clear();
      c.compress_bytes = c.decompress_bytes = 0.0;
      c.replies.clear();
      c.byte_check.clear();
      c.decoded.clear();
      c.attempted = 0;
      c.failures.clear();
    }

    const double t0 = now_seconds();
    {
      std::vector<std::jthread> threads;
      for (std::size_t i = 0; i < connections; ++i)
        threads.emplace_back([&, i] { run_connection(conns[i], dealt[i], fields); });
    }
    const double wall = now_seconds() - t0;

    std::vector<const Reply*> all;
    for (Connection& c : conns) {
      tally.attempt(c.attempted);
      for (const auto& f : c.failures) tally.fail(f);
      for (const auto& d : c.decoded)
        tally.check_psnr("fpsnrd field " + std::to_string(d.field) + " decode",
                         psnr_db(fields[d.field]->span(), d.values.f32),
                         d.recorded_db);
      for (std::size_t idx : c.byte_check) {
        const Reply& r = c.replies[idx];
        const auto& f = *fields[r.job.field];
        tally.attempt();
        try {
          const auto local = reference[r.job.combo].compress(
              fpsnr::Source::memory(f.span(), f.dims.extents),
              fpsnr::FixedPsnr{kCombos[r.job.combo].target}, fpsnr::Sink::memory());
          if (local.archive != r.archive)
            tally.fail("fpsnrd field " + std::to_string(r.job.field) + " " +
                       kCombos[r.job.combo].engine +
                       ": daemon archive differs from in-process Session::compress");
        } catch (const std::exception& e) {
          tally.fail(std::string("in-process reference compress threw: ") + e.what());
        }
      }
      for (const Reply& r : c.replies) all.push_back(&r);
      if (timed) {
        auto& latency = measured.latency_s;
        latency.insert(latency.end(), c.compress_s.begin(), c.compress_s.end());
        latency.insert(latency.end(), c.decompress_s.begin(),
                       c.decompress_s.end());
        measured.compress.add(c.compress_bytes, 0.0);
        measured.decompress.add(c.decompress_bytes, 0.0);
        measured.requests.add(
            static_cast<double>(c.compress_s.size() + c.decompress_s.size()), 0.0);
      }
      if (Tracer::active())
        traced_compress_s.insert(traced_compress_s.end(), c.compress_s.begin(),
                                 c.compress_s.end());
    }
    if (timed) {
      // Bytes and requests of all connections per second of pass wall.
      measured.compress.add(0.0, wall);
      measured.decompress.add(0.0, wall);
      measured.requests.add(0.0, wall);
      measured.close_pass();
    }

    if (accuracy)
      for (const Reply* r : all)
        measured.accuracy(static_cast<double>(fields[r->job.field]->bytes()),
                          static_cast<double>(r->archive.size()),
                          kCombos[r->job.combo].target, r->achieved_db);

    std::vector<std::vector<const Reply*>> by_combo(std::size(kCombos));
    for (const Reply* r : all) by_combo[r->job.combo].push_back(r);
    for (std::size_t k = 0; k < kBlockReads; ++k) {
      const auto& pool = by_combo[k % by_combo.size()];
      if (pool.empty()) continue;
      const Reply& r = *pool[rng() % pool.size()];
      const auto& f = *fields[r.job.field];
      tally.attempt();
      try {
        const auto info = reader.inspect(fpsnr::Source::memory(r.archive));
        const std::size_t b = rng() % info.block_count;
        Span s("session.decompress_block", next_op_id());
        const auto block = reader.decompress_block(fpsnr::Source::memory(r.archive), b);
        const double t = s.stop();
        if (timed) measured.block_read_s.push_back(t);
        const auto full = reader.decompress(fpsnr::Source::memory(r.archive));
        if (block.f32 != gather(full.f32, f.dims.extents,
                                tile_box(f.dims.extents, info.tile, b)))
          tally.fail("fpsnrd field " + std::to_string(r.job.field) + ": block " +
                     std::to_string(b) + " differs from the full decode");
      } catch (const std::exception& e) {
        tally.fail(std::string("fpsnrd block read threw: ") + e.what());
      }
    }

    if (keep)
      for (const Reply* r : all) kept_replies.push_back(*r);
    return wall;
  };

  run_pass(false, false, false);  // warm-up pass (untimed)

  bool kept_pass = false;
  const PassFn pass = [&](int p) {
    const bool keep = Tracer::active() != nullptr && !kept_pass;
    const double wall = run_pass(true, p == 0, keep);
    kept_pass = kept_pass || keep;
    return wall;
  };

  if (!o.trace) {
    out.sizes["passes"] = std::to_string(run_measured_passes(
        o, pass, [&] { return measured.latency_s.size(); }));
    out.sizes["latency_samples"] = std::to_string(measured.latency_s.size());
    out.end_to_end = measured.end_to_end(setup_s);
    return;
  }

  svc::Client& probe = *conns[0].client;
  const ServerStats before = parse_stats(probe.stats());
  run_traced_passes(o, pass, out);
  const ServerStats after = parse_stats(probe.stats());
  Metrics& m = out.layers;
  const double served = after.latency_count - before.latency_count;
  m["service.server_latency_ms_mean"] =
      served > 0.0 ? (after.latency_total_us - before.latency_total_us) / served / 1e3
                   : 0.0;
  m["service.rejected"] = after.rejected - before.rejected;

  std::vector<double> ping_ms;
  for (int k = 0; k < 200; ++k) {
    tally.attempt();
    try {
      Span s("service.ping", next_op_id());
      probe.ping();
      ping_ms.push_back(s.stop() * 1e3);
    } catch (const std::exception& e) {
      tally.fail(std::string("ping failed: ") + e.what());
    }
  }
  m["service.ping_ms"] = median(ping_ms);

  // Transport: the same Compress requests through a bare in-process
  // Session::compress (one caller), against the client-measured latency —
  // what the socket hop, framing and queue handoff add.
  std::vector<double> in_process;
  for (const Reply& r : kept_replies) {
    const auto& f = *fields[r.job.field];
    tally.attempt();
    try {
      Span s("session.compress", next_op_id());
      const auto local = reference[r.job.combo].compress(
          fpsnr::Source::memory(f.span(), f.dims.extents),
          fpsnr::FixedPsnr{kCombos[r.job.combo].target}, fpsnr::Sink::memory());
      in_process.push_back(s.stop());
    } catch (const std::exception& e) {
      tally.fail(std::string("in-process transport replay threw: ") + e.what());
    }
  }
  m["service.transport_ms"] = (median(traced_compress_s) - median(in_process)) * 1e3;

  std::vector<ReplayEntry> replay;
  for (const Reply& r : kept_replies) {
    const auto& f = *fields[r.job.field];
    ReplayEntry entry;
    entry.label = "fpsnrd field " + std::to_string(r.job.field) + " " +
                  kCombos[r.job.combo].engine;
    entry.values = f.span();
    entry.dims = f.dims.extents;
    entry.target_db = kCombos[r.job.combo].target;
    entry.engine = kCombos[r.job.combo].engine;
    entry.high_target = entry.target_db == 80.0;
    entry.achieved_db = r.achieved_db;
    entry.archive = r.archive;
    replay.push_back(std::move(entry));
  }
  ReplayConfig rc;
  rc.threads = server_threads;
  rc.subset_entries = 16;
  rc.block_picks = 2;
  replay_layers(replay, rc, rng, tally, out.layers);
}

}  // namespace perfbench

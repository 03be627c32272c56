// Serve traffic of the traced run's probes: a seeded request stream, the
// `ivory serve` child process, and closed-loop passes of nproc client
// connections, each waiting for its reply. The probes send the seeded
// stream once cold and once warm (same bodies, new ids).
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>

#include "checks.hpp"
#include "serve/server.hpp"
#include "serve/wave_codec.hpp"
#include "serve_stream.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace pb {

using ivory::json::Value;
namespace serve = ivory::serve;

namespace {

void append_num(Value::Object& o, const char* k, double v) { o.emplace_back(k, Value(v)); }

}  // namespace

std::vector<ServeReq> serve_stream(std::uint64_t seed) {
  Rng rng(seed ^ 0x5E27Eull);
  std::vector<ServeReq> out;
  auto add = [&](ServeReq::Kind kind, Value::Object body) {
    ServeReq r;
    r.kind = kind;
    r.body = Value(std::move(body));
    out.push_back(std::move(r));
  };
  // Statics: 208 per op, ~30 % of them repeating an earlier body of the op.
  for (int op = 0; op < 4; ++op) {
    const std::size_t first = out.size();
    for (int k = 0; k < 208; ++k) {
      if (k >= 10 && rng.uniform(0.0, 1.0) < 0.3) {
        ServeReq r = out[first + static_cast<std::size_t>(rng.range(0, k - 1))];
        out.push_back(r);
        continue;
      }
      Value::Object b;
      switch (op) {
        case 0: {
          static const int ratios[][2] = {{2, 1}, {3, 1}, {3, 2}, {4, 1}};
          const int* nm = ratios[rng.range(0, 3)];
          b.emplace_back("op", Value("sc_static"));
          append_num(b, "n", nm[0]);
          append_num(b, "m", nm[1]);
          append_num(b, "cfly", rng.uniform(1e-6, 5e-6));
          append_num(b, "gtot", rng.uniform(5e3, 20e3));
          append_num(b, "fsw", rng.uniform(40e6, 120e6));
          append_num(b, "iload", rng.uniform(5.0, 20.0));
          append_num(b, "vin", rng.uniform(2.5, 3.3));  // held cap voltages within rating
          add(ServeReq::Sc, std::move(b));
          break;
        }
        case 1:
          b.emplace_back("op", Value("buck_static"));
          append_num(b, "l", rng.uniform(2e-9, 8e-9));
          append_num(b, "fsw", rng.uniform(50e6, 150e6));
          append_num(b, "phases", rng.range(0, 1) ? 4 : 2);
          append_num(b, "iload", rng.uniform(5.0, 15.0));
          append_num(b, "vin", rng.uniform(2.5, 4.0));
          append_num(b, "vout", rng.uniform(0.8, 1.1));
          add(ServeReq::Buck, std::move(b));
          break;
        case 2: {
          const double vout = rng.uniform(0.8, 1.0);
          b.emplace_back("op", Value("ldo_static"));
          append_num(b, "vin", vout + rng.uniform(0.2, 0.4));
          append_num(b, "vout", vout);
          append_num(b, "iload", rng.uniform(1.0, 3.0));
          add(ServeReq::Ldo, std::move(b));
          break;
        }
        default: {
          const double vout = rng.uniform(0.8, 1.0);
          b.emplace_back("op", Value("dldo_static"));
          append_num(b, "vin", vout + rng.uniform(0.2, 0.4));
          append_num(b, "vout", vout);
          append_num(b, "iload", rng.uniform(1.0, 3.0));
          append_num(b, "ncomp", 1 << rng.range(0, 3));
          add(ServeReq::Dldo, std::move(b));
          break;
        }
      }
    }
  }
  // SPICE RC / RC-ladder transients with waveforms: 50 buffered only, 50
  // buffered whose twin is streamed as wave1 (50 streams).
  for (int k = 0; k < 100; ++k) {
    checks::RcSpec rc;
    rc.v = rng.uniform(0.5, 1.5);
    const int sections = rng.range(1, 3);
    double tau = 0.0;
    for (int s = 0; s < sections; ++s) {
      rc.r.push_back(rng.uniform(100.0, 2000.0));
      rc.c.push_back(rng.uniform(0.1e-9, 2e-9));
      tau += rc.r.back() * rc.c.back() * (s + 1);
    }
    rc.steps = 200;
    rc.dt = 3.0 * tau / rc.steps;
    rc.trapezoidal = rng.range(0, 1) == 1;
    Value::Object b;
    b.emplace_back("op", Value("transient"));
    b.emplace_back("topology", Value("spice"));
    b.emplace_back("netlist", Value(rc.netlist()));
    append_num(b, "tstop", rc.dt * rc.steps);
    append_num(b, "dt", rc.dt);
    b.emplace_back("method", Value(rc.trapezoidal ? "trap" : "be"));
    b.emplace_back("uic", Value(true));
    b.emplace_back("record", Value(Value::Array{Value("n" + std::to_string(sections))}));
    b.emplace_back("return_waveform", Value(true));
    add(ServeReq::Rc, std::move(b));
    out.back().rc = rc;
    if (k >= 50) {
      ServeReq twin = out.back();
      twin.stream = true;
      twin.twin = static_cast<int>(out.size()) - 1;
      out.push_back(std::move(twin));
    }
  }
  // A few heavy requests: 8 optimize, 6 pareto at density 0.5, 6
  // scenario_eval. The op and topology counts are fixed, so that their cost,
  // which dominates the cold pass, does not vary with the seed.
  static const char* const topo[] = {"sc", "buck", "sc", "dldo", "sc", "buck", "ldo", "sc"};
  static const char* const presets[] = {"gpu-dvfs-step", "active-idle", "race-to-halt",
                                        "server-diurnal"};
  for (int k = 0; k < 20; ++k) {
    Value::Object b;
    if (k < 8) {
      b.emplace_back("op", Value("optimize"));
      b.emplace_back("topology", Value(topo[k]));
      append_num(b, "dist", 4);
      append_num(b, "power", rng.uniform(10.0, 30.0));
      append_num(b, "area", rng.uniform(15.0, 30.0));
    } else if (k < 14) {
      b.emplace_back("op", Value("pareto"));
      append_num(b, "power", rng.uniform(10.0, 30.0));
      append_num(b, "area", rng.uniform(15.0, 30.0));
      append_num(b, "density", 0.5);
    } else {
      b.emplace_back("op", Value("scenario_eval"));
      b.emplace_back("preset", Value(presets[k % 4]));
      append_num(b, "dist", 2);
      append_num(b, "power", rng.uniform(5.0, 15.0));
      b.emplace_back("duration", Value("2u"));
      b.emplace_back("dt", Value("4n"));
    }
    add(ServeReq::Heavy, std::move(b));
  }
  // Seeded order; twins keep pointing at their buffered request.
  std::vector<std::size_t> perm(out.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  for (std::size_t i = perm.size(); i-- > 1;)
    std::swap(perm[i], perm[static_cast<std::size_t>(rng.next() % (i + 1))]);
  std::vector<std::size_t> where(out.size());
  std::vector<ServeReq> shuffled;
  for (std::size_t i = 0; i < perm.size(); ++i) {
    where[perm[i]] = i;
    shuffled.push_back(out[perm[i]]);
  }
  for (ServeReq& r : shuffled)
    if (r.twin >= 0) r.twin = static_cast<int>(where[static_cast<std::size_t>(r.twin)]);
  for (std::size_t i = 0; i < shuffled.size(); ++i) shuffled[i].id = static_cast<int>(i) + 1;
  return shuffled;
}

std::string ServeReq::line(int id_offset) const {
  Value v = body;
  Value::Object o{{"id", Value(id + id_offset)}};
  for (const auto& m : v.as_object()) o.push_back(m);
  if (stream) {
    o.emplace_back("stream", Value(true));
    o.emplace_back("encoding", Value("wave1"));
    o.emplace_back("chunk_bytes", Value(1024));
  }
  return Value(std::move(o)).write();
}

std::string reply_body(const std::string& reply) {
  const std::size_t k = reply.find(",\"ok\":");
  return k == std::string::npos ? reply : reply.substr(k);
}

// --- server process -------------------------------------------------------

ServerProc::ServerProc(const Options& o, const std::string& socket, const std::string& cache_dir,
                       unsigned workers, unsigned threads)
    : socket_(socket), fleet_(workers > 1) {
  std::vector<std::string> args = {o.ivory, "serve", "--socket", socket, "--threads",
                                   std::to_string(threads)};
  if (!cache_dir.empty()) {
    args.push_back("--cache-dir");
    args.push_back(cache_dir);
  }
  if (fleet_) {
    args.push_back("--workers");
    args.push_back(std::to_string(workers));
  }
  log_path_ = socket + ".log";
  int in[2];
  if (::pipe(in) != 0) throw std::runtime_error("pipe failed");
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);  // never outlive the benchmark
    ::dup2(in[0], 0);
    const int logfd = ::open(log_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (logfd >= 0) {
      ::dup2(logfd, 1);
      ::dup2(logfd, 2);
    }
    ::close(in[0]);
    ::close(in[1]);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(in[0]);
  stdin_fd_ = in[1];
  // Ready when a connection is accepted and answers a stats request.
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    try {
      serve::BlockingClient c(socket_);
      c.send_line("{\"op\":\"stats\",\"id\":0}");
      checks::reply_ok(c.recv_line(), 0);
      return;
    } catch (const CheckFailure&) {
      stop();
      throw;
    } catch (const std::exception&) {
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("ivory serve exited during start-up; see " + log_path_);
    }
    if (seconds_since(t0) > 30.0) {
      stop();
      throw std::runtime_error("ivory serve did not start in 30 s");
    }
    ::usleep(2000);
  }
}

ServerProc::~ServerProc() { stop(); }

bool ServerProc::stop() {
  if (pid_ < 0) return false;
  // One process stops at EOF on stdin; a fleet drains on SIGTERM.
  ::close(stdin_fd_);
  if (fleet_) ::kill(pid_, SIGTERM);
  const Clock::time_point t0 = Clock::now();
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (seconds_since(t0) > 20.0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    ::usleep(2000);
  }
  pid_ = -1;
  if (WIFSIGNALED(status)) return true;
  // A fleet outlives its workers and names their crashes when it exits:
  // "... (R retryable errors, C worker crashes, ...)".
  std::ifstream in(log_path_);
  const std::string log((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::size_t k = log.rfind(" worker crashes");
  if (k == std::string::npos) return false;
  std::size_t b = k;
  while (b > 0 && std::isdigit(static_cast<unsigned char>(log[b - 1]))) --b;
  return std::strtoull(log.c_str() + b, nullptr, 10) > 0;
}

// --- one pass ---------------------------------------------------------------

PassResult run_pass(const std::string& socket, const std::vector<ServeReq>& reqs, int id_offset,
                    unsigned clients, const char* layer) {
  PassResult res;
  res.replies.resize(reqs.size());
  res.latency_ms.resize(reqs.size());
  std::vector<std::unique_ptr<serve::BlockingClient>> conns;
  for (unsigned c = 0; c < clients; ++c)
    conns.push_back(std::make_unique<serve::BlockingClient>(socket));
  std::atomic<bool> failed{false};
  std::string error;
  std::mutex error_mu;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      serve::BlockingClient& cl = *conns[c];
      try {
        for (std::size_t i = c; i < reqs.size() && !failed; i += clients) {
          const ServeReq& r = reqs[i];
          const std::string line = r.line(id_offset);
          const Clock::time_point s0 = Clock::now();
          spans::Span sp("request", layer, r.id + id_offset);
          cl.send_line(line);
          if (r.stream) {
            spans::Span dec("read_stream", "serve.frame", r.id + id_offset);
            const serve::StreamAssembler a = serve::read_stream(
                [&cl](char* out, std::size_t cap) { return cl.recv_raw(out, cap); });
            res.replies[i] = a.decoded();
          } else {
            res.replies[i] = cl.recv_line();
          }
          res.latency_ms[i] = seconds_since(s0) * 1e3;
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lk(error_mu);
        failed = true;
        error = e.what();
      }
    });
  for (std::thread& t : threads) t.join();
  if (failed) throw std::runtime_error("serve pass failed: " + error);
  return res;
}

void check_pass(const std::vector<ServeReq>& reqs, const PassResult& p, int id_offset) {
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const ServeReq& r = reqs[i];
    const Value reply = checks::reply_ok(p.replies[i], r.id + id_offset);
    switch (r.kind) {
      case ServeReq::Sc: checks::sc_static(r.body, reply); break;
      case ServeReq::Buck: checks::buck_static(r.body, reply); break;
      case ServeReq::Ldo: checks::ldo_static(r.body, reply); break;
      case ServeReq::Dldo: checks::dldo_static(r.body, reply); break;
      case ServeReq::Rc: checks::rc_transient(r.rc, reply); break;
      case ServeReq::Heavy: break;
    }
    if (r.twin >= 0)
      checks::bytes_equal(reply_body(p.replies[i]),
                          reply_body(p.replies[static_cast<std::size_t>(r.twin)]),
                          "serve.wave1_equals_buffered");
  }
}

std::string fresh_dir(const Options& o, const std::string& name) {
  const std::string d = o.run_dir + "/" + name;
  std::filesystem::remove_all(d);
  std::filesystem::create_directories(d);
  return d;
}


}  // namespace pb

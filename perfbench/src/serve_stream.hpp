// Serve traffic of the traced run's probes: the seeded request stream, the
// `ivory serve` child process and one closed-loop pass.
#pragma once

#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "common/json.hpp"

namespace pb {

/// Warm-pass ids are the cold-pass ids plus this offset.
constexpr int kWarmIdOffset = 1000000;

/// One request of a pass. Static ops may repeat an earlier body; a streamed
/// RC transient (wave1) has a buffered twin with the same body.
struct ServeReq {
  enum Kind { Sc, Buck, Ldo, Dldo, Rc, Heavy };
  Kind kind = Sc;
  int id = 0;
  ivory::json::Value body;  ///< the request body (op and parameters)
  bool stream = false;
  int twin = -1;            ///< index of the buffered twin of a stream
  checks::RcSpec rc;        ///< kind == Rc
  std::string line(int id_offset) const;
};

/// One pass of 1,002 requests: 832 static (~30 % repeats), 150 RC transients
/// (50 of them wave1 streams), 20 optimize/pareto/scenario_eval.
std::vector<ServeReq> serve_stream(std::uint64_t seed);

/// The reply without its leading id member (bytes comparable across ids).
std::string reply_body(const std::string& reply);

/// `ivory serve --threads T` on `socket` (a fleet of `workers` processes
/// when above 1), with a durable store in `cache_dir` unless it is empty;
/// ready once it answers a stats request. The destructor stops it and waits
/// for it.
class ServerProc {
 public:
  ServerProc(const Options& o, const std::string& socket, const std::string& cache_dir,
             unsigned workers, unsigned threads);
  ~ServerProc();
  /// Stops the server and waits for it. True when it, or a worker of a
  /// fleet, crashed while it ran (died by a signal).
  bool stop();
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;
  const std::string& socket() const { return socket_; }

 private:
  std::string socket_;
  std::string log_path_;
  bool fleet_ = false;
  int pid_ = -1;
  int stdin_fd_ = -1;
};

struct PassResult {
  std::vector<std::string> replies;  ///< per request, streams reassembled
  std::vector<double> latency_ms;    ///< send to full reply (END frame)
};

/// Sends every request once over `clients` connections (request i on
/// connection i mod clients), each waiting for its reply.
PassResult run_pass(const std::string& socket, const std::vector<ServeReq>& reqs, int id_offset,
                    unsigned clients, const char* layer);

/// Every reply ok with its id, closed forms on statics, RC waveforms against
/// the reference recurrence, and wave1 streams equal to their buffered twin.
void check_pass(const std::vector<ServeReq>& reqs, const PassResult& p, int id_offset);

std::string fresh_dir(const Options& o, const std::string& name);

}  // namespace pb

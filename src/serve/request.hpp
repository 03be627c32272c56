// Request schema of the batch-evaluation service.
//
// One NDJSON line = one request object:
//
//   {"id": 7, "op": "sc_static", "n": 3, "m": 1, "cfly": "4u", ...}
//
// Envelope fields (not part of the cached content):
//   id          optional string | number | null — echoed in the response
//   deadline_ms optional number > 0 — drop the job if it has waited longer
//   stream      optional bool — true: respond with a binary frame stream
//               (see serve/frame.hpp) instead of one JSON line
//   encoding    optional "json" (default) | "wave1" — streamed payload
//               encoding; wave1 requires a transient with return_waveform
//   chunk_bytes optional integer in [1, 16 MiB] — streamed chunk budget
//
// Everything else, including "op", is the request *body*. The cache key is
// fnv1a64 over the canonical form of the body: object keys sorted bytewise
// at every level, shortest-round-trip number formatting, no whitespace. Two
// requests that differ only in member order, number spelling ("0.10" vs
// "1e-1") or envelope fields therefore share one cache entry. Normalization
// is structural, not semantic: a request spelling out a default value hashes
// differently from one omitting it (both evaluate to the same result).
//
// Numeric parameter fields accept either JSON numbers or SPICE-suffixed
// strings ("4u", "80meg") — the same spellings the CLI takes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/optimizer.hpp"
#include "core/pareto.hpp"
#include "scenario/scenario.hpp"
#include "workload/workload.hpp"

namespace ivory::serve {

enum class Op {
  ScStatic,      ///< analyze one SC design (optionally regulated)
  BuckStatic,    ///< analyze one buck design
  LdoStatic,     ///< analyze one LDO design
  DldoStatic,    ///< analyze one discrete-time digital LDO design
  Explore,       ///< full topology x distribution sweep
  Pareto,        ///< multi-fidelity funnel: screen, extract front, simulate
  Optimize,      ///< optimize one topology family (or a two-stage cascade)
  ScenarioEval,  ///< residency-weighted power-state scenario evaluation
  Pds,           ///< end-to-end PDS composition, off-chip VRM vs IVR
  Transient,     ///< dynamic waveform summary for a workload trace
  Stats,         ///< service counters (never cached)
  Metrics,       ///< process metrics-registry snapshot (never cached)
};

const char* op_name(Op op);
Op op_from_string(const std::string& name);  ///< throws InvalidParameter

/// A validated request envelope plus its content-addressed identity.
struct Request {
  json::Value id;          ///< null when the request carried no id
  Op op = Op::Stats;
  json::Value body;        ///< the request object minus envelope fields
  std::string canonical;   ///< canonical JSON of `body`
  std::uint64_t key = 0;   ///< fnv1a64(canonical)
  double deadline_ms = 0;  ///< <= 0 means no deadline

  // Transport negotiation (envelope, excluded from the cache key: a streamed
  // and a non-streamed request for the same body share one cache entry).
  bool stream = false;
  std::string encoding = "json";   ///< "json" | "wave1"
  std::size_t chunk_bytes = 65536; ///< streamed chunk budget
};

/// Validates the envelope of a parsed request object and computes its
/// canonical form + cache key. Parameter validation happens at evaluation
/// time (see the builders below). Throws InvalidParameter.
Request parse_request(const json::Value& root);

/// Cheap transport-level peek at a raw request line, used by transports to
/// route it (plain response slot, stream slot, or cancel) before the service
/// sees it. Never throws: a malformed line classifies as a plain request and
/// the service reports the parse error in the ordinary response.
struct TransportDirective {
  bool is_stream = false;   ///< envelope asked for a frame-stream response
  bool is_cancel = false;   ///< {"cancel": <id>} control line (no "op")
  json::Value id;           ///< request id (null when absent/invalid)
  json::Value cancel_id;    ///< id named by a cancel line
};
TransportDirective classify_line(const std::string& line);

// ---------------------------------------------------------------------------
// Typed parameters per op. Builders perform strict field-level validation:
// unknown fields, wrong types and out-of-domain values are rejected with the
// offending field named.
// ---------------------------------------------------------------------------

struct ScStaticParams {
  core::ScDesign design;
  double vin_v = 3.3;
  double i_load_a = 10.0;
  double regulate_v = 0.0;  ///< > 0: also report the regulated operating point
};
ScStaticParams sc_static_params(const json::Value& body);

struct BuckStaticParams {
  core::BuckDesign design;
  double vin_v = 3.3;
  double vout_v = 1.0;
  double i_load_a = 10.0;
};
BuckStaticParams buck_static_params(const json::Value& body);

struct LdoStaticParams {
  core::LdoDesign design;
  double vin_v = 1.2;
  double vout_v = 1.0;
  double i_load_a = 10.0;
};
LdoStaticParams ldo_static_params(const json::Value& body);

struct DldoStaticParams {
  core::DldoDesign design;
  double vin_v = 1.2;
  double vout_v = 1.0;
  double i_load_a = 10.0;
};
DldoStaticParams dldo_static_params(const json::Value& body);

struct ExploreParams {
  core::SystemParams sys;
  core::OptTarget target = core::OptTarget::Efficiency;
  int top_k = 0;  ///< > 0: truncate the sorted result list (0 = all)
};
ExploreParams explore_params(const json::Value& body);

/// Funnel body: system fields (like explore) + optional "density" (every
/// FunnelSpec grid axis scaled by it), "front_cap", "simulate" and "top_k"
/// (truncates the reported points, 0 = all; stats keep the full counts).
struct ParetoParams {
  core::SystemParams sys;
  core::FunnelSpec spec;
  int top_k = 0;
};
ParetoParams pareto_params(const json::Value& body);

struct OptimizeParams {
  core::SystemParams sys;
  core::IvrTopology topology = core::IvrTopology::SwitchedCapacitor;
  bool two_stage = false;
  int n_distributed = 4;
};
OptimizeParams optimize_params(const json::Value& body);

struct PdsParams {
  core::SystemParams sys;
  double v_nom_v = 0.85;
  double guard_off_v = 0.110;
  double guard_ivr_v = 0.025;
  int n_distributed = 4;
};
PdsParams pds_params(const json::Value& body);

/// Scenario body: system fields (like optimize) + exactly one of "preset"
/// (a workload::residency_preset name) or "states" (inline array of state
/// objects), optional "domains" for hybrid delivery, "topology" and "dist"
/// for the IVR design.
struct ScenarioEvalParams {
  core::SystemParams sys;
  core::IvrTopology topology = core::IvrTopology::SwitchedCapacitor;
  int n_distributed = 4;
  scenario::ScenarioSpec spec;
};
ScenarioEvalParams scenario_eval_params(const json::Value& body);

struct TransientParams {
  enum class Kind { Sc, Buck, Ldo, Dldo, Spice };
  Kind kind = Kind::Sc;
  core::ScDesign sc;
  core::BuckDesign buck;
  core::LdoDesign ldo;
  core::DldoDesign dldo;
  double vin_v = 3.3;
  double vref_v = 1.0;
  double dt_s = 2e-9;
  /// Load: either an inline current trace ("iload": [amps...]) or a
  /// synthesized workload ("load": {"benchmark": "CFD", ...}).
  std::vector<double> i_load_a;
  bool has_workload = false;
  workload::Benchmark benchmark = workload::Benchmark::CFD;
  int n_sm = 4;
  double sm_avg_w = 5.0;
  double duration_s = 20e-6;
  std::uint64_t seed = 1;
  bool return_waveform = false;

  // Switch-level engine (topology "spice"): full MNA transient of an inline
  // netlist instead of the behavioural cycle models. The response carries
  // the simulator-cost counters (steps, LU factorizations, keyed-cache
  // hits/evictions) alongside per-node statistics.
  std::string netlist;                    ///< SPICE netlist text.
  double tstop_s = 0.0;                   ///< Required for Kind::Spice.
  bool trapezoidal = true;                ///< "method": "trap" (default) | "be".
  bool use_ic = false;                    ///< SPICE UIC semantics.
  int record_every = 1;
  std::vector<std::string> record_nodes;  ///< Empty = all non-ground nodes.
  bool adaptive = false;
  double dv_max_v = 1e-3;
  double dt_max_s = 0.0;
  int lu_cache_capacity = 8;              ///< See spice::TranSpec.
  /// Factorization kernel: "auto" (default) | "dense" | "banded".
  std::string kernel = "auto";
};
TransientParams transient_params(const json::Value& body);

}  // namespace ivory::serve

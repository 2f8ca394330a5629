#include "experiment/experiment_spec.h"

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/spec_text.h"
#include "models/model_catalog.h"

namespace dilu::experiment {

using spec_text::Fail;
using spec_text::FormatDouble;
using spec_text::FormatTime;
using spec_text::ParseDouble;
using spec_text::ParseInt;
using spec_text::ParseTime;
using spec_text::ParseUint64;

const char*
ToString(ArrivalKind kind)
{
  switch (kind) {
    case ArrivalKind::kConstant: return "constant";
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kGamma: return "gamma";
    case ArrivalKind::kBursty: return "bursty";
    case ArrivalKind::kPeriodic: return "periodic";
    case ArrivalKind::kSporadic: return "sporadic";
    case ArrivalKind::kClosed: return "closed";
  }
  return "?";
}

DeploySpec&
ExperimentSpec::AddInference(const std::string& model)
{
  DeploySpec d;
  d.fn.model = model;
  d.fn.type = TaskType::kInference;
  deploys_.push_back(std::move(d));
  return deploys_.back();
}

DeploySpec&
ExperimentSpec::AddTraining(const std::string& model, int workers,
                            std::int64_t iterations)
{
  DeploySpec d;
  d.fn.model = model;
  d.fn.type = TaskType::kTraining;
  d.fn.workers = workers;
  d.fn.target_iterations = iterations;
  deploys_.push_back(std::move(d));
  return deploys_.back();
}

WorkloadSpec&
ExperimentSpec::AddConstant(int fn, double rps, TimeUs duration)
{
  WorkloadSpec w;
  w.fn = fn;
  w.kind = ArrivalKind::kConstant;
  w.rps = rps;
  w.duration = duration;
  workloads_.push_back(w);
  return workloads_.back();
}

WorkloadSpec&
ExperimentSpec::AddPoisson(int fn, double rps, TimeUs duration)
{
  WorkloadSpec w;
  w.fn = fn;
  w.kind = ArrivalKind::kPoisson;
  w.rps = rps;
  w.duration = duration;
  workloads_.push_back(w);
  return workloads_.back();
}

WorkloadSpec&
ExperimentSpec::AddGamma(int fn, double rps, double cv, TimeUs duration)
{
  WorkloadSpec w;
  w.fn = fn;
  w.kind = ArrivalKind::kGamma;
  w.rps = rps;
  w.cv = cv;
  w.duration = duration;
  workloads_.push_back(w);
  return workloads_.back();
}

WorkloadSpec&
ExperimentSpec::AddTrace(int fn, ArrivalKind kind, double rps,
                         TimeUs duration)
{
  WorkloadSpec w;
  w.fn = fn;
  w.kind = kind;
  w.rps = rps;
  w.duration = duration;
  workloads_.push_back(w);
  return workloads_.back();
}

WorkloadSpec&
ExperimentSpec::AddClosedLoop(int fn, int clients, TimeUs think,
                              TimeUs duration)
{
  WorkloadSpec w;
  w.fn = fn;
  w.kind = ArrivalKind::kClosed;
  w.clients = clients;
  w.think = think;
  w.duration = duration;
  workloads_.push_back(w);
  return workloads_.back();
}

ExperimentSpec&
ExperimentSpec::RunFor(TimeUs duration)
{
  run_for_ = duration;
  return *this;
}

ExperimentSpec&
ExperimentSpec::ExportTo(std::string prefix)
{
  export_prefix_ = std::move(prefix);
  return *this;
}

TimeUs
ExperimentSpec::EffectiveRunFor() const
{
  if (run_for_ > 0) return run_for_;
  TimeUs last = 0;
  for (const WorkloadSpec& w : workloads_) last = std::max(last, w.end());
  for (const chaos::ScenarioEvent& e : chaos_.events()) {
    last = std::max(last, e.at + e.duration);
  }
  for (const DeploySpec& d : deploys_) last = std::max(last, d.start);
  return last + Sec(5);
}

namespace {

// --- the spec-key tables ---------------------------------------------
//
// Every `key=value` of a cluster / storage / nic / deploy / workload
// line is one SpecKey entry. The loader (Parse), the printer (ToText)
// and the sweep's parameter paths (ApplyParam) all go through it, so a
// key's name, applicability, validation and canonical form are written
// once.

/**
 * Where a key applies, as a bit set over a section's line variants:
 * the task type on deploy lines, the arrival kind on workload lines.
 * A key outside the line's scope is rejected at any value.
 */
using Scope = unsigned;
constexpr Scope kAll = ~0u;
constexpr Scope kInference = 1u << 0;
constexpr Scope kTraining = 1u << 1;

constexpr Scope
KindScope(ArrivalKind kind)
{
  return 1u << static_cast<unsigned>(kind);
}

constexpr Scope kOpenKinds = kAll & ~KindScope(ArrivalKind::kClosed);

Scope LineScope(const ClusterSection&) { return kAll; }
Scope LineScope(const FabricSection&) { return kAll; }
Scope
LineScope(const DeploySpec& d)
{
  return d.fn.type == TaskType::kTraining ? kTraining : kInference;
}
Scope LineScope(const WorkloadSpec& w) { return KindScope(w.kind); }

/** Why a key outside the line's scope is refused there. */
std::string
ScopeError(const DeploySpec& d)
{
  return d.fn.type == TaskType::kTraining
             ? "applies to inference deploys only"
             : "applies to training deploys only";
}
std::string
ScopeError(const WorkloadSpec& w)
{
  return std::string("does not apply to kind '") + ToString(w.kind) + "'";
}
/** Cluster, storage and nic keys apply to every line of their kind. */
template <typename S>
std::string
ScopeError(const S&)
{
  return {};
}

/** Flags of a SpecKey. */
constexpr unsigned kReserved = 1u << 0;  ///< a sweep may not vary it
constexpr unsigned kPrinted = 1u << 1;   ///< printed even at its default

/** One key of a section `S`'s lines. */
template <typename S>
struct SpecKey {
  std::string_view name;
  Scope scope;
  /** Parse `v` into `s`; returns "" or why `v` is not a valid value. */
  std::string (*set)(S& s, const std::string& v);
  /**
   * The field's canonical text. ToText leaves the key out when this
   * equals the text of a default-constructed section ("" for an unset
   * override), unless the key is kPrinted.
   */
  std::string (*get)(const S& s);
  unsigned flags = 0;
};

// Value steps the entries share: each parses `v` into `*out` and
// returns "" or why `v` was rejected; `*out` is untouched on failure.

template <typename T>
std::string
IntAtLeast(const std::string& v, std::int32_t lo, T* out)
{
  std::int32_t i = 0;
  if (!ParseInt(v, &i) || i < lo) {
    return "must be an int >= " + std::to_string(lo);
  }
  *out = i;
  return {};
}

template <typename T>
std::string
PositiveDouble(const std::string& v, T* out)
{
  double x = 0.0;
  if (!ParseDouble(v, &x) || x <= 0.0) return "must be > 0";
  *out = x;
  return {};
}

std::string
Fraction(const std::string& v, double* out)
{
  double x = 0.0;
  if (!ParseDouble(v, &x) || x <= 0.0 || x > 1.0) {
    return "must be in (0, 1]";
  }
  *out = x;
  return {};
}

std::string
PositiveTime(const std::string& v, TimeUs* out)
{
  TimeUs t = 0;
  if (!ParseTime(v, &t) || t <= 0) return "wants a time > 0";
  *out = t;
  return {};
}

std::string
AnyTime(const std::string& v, TimeUs* out)
{
  return ParseTime(v, out) ? "" : "wants a time (e.g. 10s)";
}

template <typename T>
std::string
Word(const std::string& v, std::initializer_list<const char*> words, T* out)
{
  std::string want;
  for (const char* w : words) {
    if (v == w) {
      *out = v;
      return {};
    }
    want += (want.empty() ? "" : "|") + std::string(w);
  }
  return "wants " + want;
}

std::string
OnOff(const std::string& v, std::optional<bool>* out)
{
  if (v != "on" && v != "off") return "wants on|off";
  *out = v == "on";
  return {};
}

std::string
Seed(const std::string& v, std::optional<std::uint64_t>* out)
{
  std::uint64_t u = 0;
  if (!ParseUint64(v, &u)) return "must be a non-negative int";
  *out = u;
  return {};
}

/** The canonical text of a set override, "" when unset. */
template <typename T>
std::string
Opt(const std::optional<T>& v)
{
  if (!v) return {};
  if constexpr (std::is_same_v<T, bool>) {
    return *v ? "on" : "off";
  } else if constexpr (std::is_same_v<T, double>) {
    return FormatDouble(*v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return *v;
  } else {
    return std::to_string(*v);
  }
}

using Cluster = ClusterSection;
using Fabric = FabricSection;
using Deploy = DeploySpec;
using Workload = WorkloadSpec;
using Value = const std::string&;

// Entries are in canonical print order.

constexpr SpecKey<Cluster> kClusterKeys[] = {
    {"nodes", kAll,
     [](Cluster& c, Value v) { return IntAtLeast(v, 1, &c.nodes); },
     [](const Cluster& c) { return Opt(c.nodes); }},
    {"gpus_per_node", kAll,
     [](Cluster& c, Value v) { return IntAtLeast(v, 1, &c.gpus_per_node); },
     [](const Cluster& c) { return Opt(c.gpus_per_node); }},
    {"preset", kAll,
     [](Cluster& c, Value v) {
       return Word(v,
                   {"dilu", "exclusive", "mps-l", "mps-r", "tgs", "fastgs",
                    "infless-l", "infless-r"},
                   &c.preset);
     },
     [](const Cluster& c) { return c.preset; }},
    {"scheduler", kAll,
     [](Cluster& c, Value v) {
       return Word(v, {"dilu", "exclusive", "static"}, &c.scheduler);
     },
     [](const Cluster& c) { return Opt(c.scheduler); }},
    {"sharing", kAll,
     [](Cluster& c, Value v) {
       return Word(v, {"dilu", "static", "tgs", "fastgs"}, &c.sharing);
     },
     [](const Cluster& c) { return Opt(c.sharing); }},
    {"quota_mode", kAll,
     [](Cluster& c, Value v) {
       return Word(v, {"dilu", "limit", "request", "full"}, &c.quota_mode);
     },
     [](const Cluster& c) { return Opt(c.quota_mode); }},
    {"recovery", kAll,
     [](Cluster& c, Value v) {
       return Word(v, {"joint", "greedy"}, &c.recovery);
     },
     [](const Cluster& c) { return Opt(c.recovery); }},
    {"warm_starts", kAll,
     [](Cluster& c, Value v) { return OnOff(v, &c.warm_starts); },
     [](const Cluster& c) { return Opt(c.warm_starts); }},
    {"rc", kAll,
     [](Cluster& c, Value v) {
       return OnOff(v, &c.resource_complementarity);
     },
     [](const Cluster& c) { return Opt(c.resource_complementarity); }},
    {"wa", kAll,
     [](Cluster& c, Value v) { return OnOff(v, &c.workload_affinity); },
     [](const Cluster& c) { return Opt(c.workload_affinity); }},
    {"seed", kAll, [](Cluster& c, Value v) { return Seed(v, &c.seed); },
     [](const Cluster& c) { return Opt(c.seed); }, kReserved},
};

constexpr SpecKey<Fabric> kStorageKeys[] = {
    {"bw", kAll,
     [](Fabric& f, Value v) { return PositiveDouble(v, &f.storage_bw); },
     [](const Fabric& f) { return Opt(f.storage_bw); }},
    {"gc", kAll,
     [](Fabric& f, Value v) {
       double x = 0.0;
       if (!ParseDouble(v, &x) || x < 0.0 || x > 0.9) {
         return std::string("must be in [0, 0.9]");
       }
       f.storage_gc = x;
       return std::string();
     },
     [](const Fabric& f) { return Opt(f.storage_gc); }},
    {"devices", kAll,
     [](Fabric& f, Value v) {
       return IntAtLeast(v, 1, &f.storage_devices);
     },
     [](const Fabric& f) { return Opt(f.storage_devices); }},
};

constexpr SpecKey<Fabric> kNicKeys[] = {
    {"rate", kAll,
     [](Fabric& f, Value v) { return PositiveDouble(v, &f.nic_rate); },
     [](const Fabric& f) { return Opt(f.nic_rate); }},
    {"burst", kAll,
     [](Fabric& f, Value v) { return PositiveDouble(v, &f.nic_burst); },
     [](const Fabric& f) { return Opt(f.nic_burst); }},
};

// The keys every deploy takes lead the table: ToText prints the task
// word after them and before the task's own keys.
constexpr SpecKey<Deploy> kDeployKeys[] = {
    {"model", kAll,
     [](Deploy& d, Value v) {
       if (!models::HasModel(v)) return std::string("wants a catalog model");
       d.fn.model = v;
       return std::string();
     },
     [](const Deploy& d) { return d.fn.model; }, kReserved},
    {"name", kAll,
     [](Deploy& d, Value v) {
       if (v.empty()) return std::string("wants a non-empty name");
       d.fn.name = v;
       return std::string();
     },
     [](const Deploy& d) { return d.fn.name; }, kReserved},
    // --- training ---
    {"workers", kTraining,
     [](Deploy& d, Value v) { return IntAtLeast(v, 1, &d.fn.workers); },
     [](const Deploy& d) { return std::to_string(d.fn.workers); }},
    {"iterations", kTraining,
     [](Deploy& d, Value v) {
       return IntAtLeast(v, 0, &d.fn.target_iterations);
     },
     [](const Deploy& d) { return std::to_string(d.fn.target_iterations); }},
    {"checkpoint_every", kTraining,
     [](Deploy& d, Value v) {
       return PositiveTime(v, &d.fn.checkpoint_every);
     },
     [](const Deploy& d) { return FormatTime(d.fn.checkpoint_every); }},
    {"save_cost", kTraining,
     [](Deploy& d, Value v) {
       return PositiveTime(v, &d.fn.checkpoint_save_cost);
     },
     [](const Deploy& d) { return FormatTime(d.fn.checkpoint_save_cost); }},
    {"start", kTraining,
     [](Deploy& d, Value v) { return AnyTime(v, &d.start); },
     [](const Deploy& d) { return FormatTime(d.start); }},
    // --- inference ---
    {"shards", kInference,
     [](Deploy& d, Value v) { return IntAtLeast(v, 1, &d.fn.shards); },
     [](const Deploy& d) { return std::to_string(d.fn.shards); }},
    {"provision", kInference,
     [](Deploy& d, Value v) { return IntAtLeast(v, 0, &d.provision); },
     [](const Deploy& d) { return std::to_string(d.provision); }},
    {"scaler", kInference,
     [](Deploy& d, Value v) {
       return Word(v, {"dilu-lazy", "eager", "keep-alive"}, &d.scaler);
     },
     [](const Deploy& d) { return d.scaler; }},
    {"class", kInference,
     [](Deploy& d, Value v) -> std::string {
       return ParseServiceClass(v, &d.fn.admission_class)
                  ? ""
                  : "wants critical|standard|best_effort";
     },
     [](const Deploy& d) -> std::string {
       return ToString(d.fn.admission_class);
     }},
    {"queue_cap", kInference,
     [](Deploy& d, Value v) { return IntAtLeast(v, 1, &d.fn.queue_cap); },
     [](const Deploy& d) { return std::to_string(d.fn.queue_cap); }},
    {"retries", kInference,
     [](Deploy& d, Value v) {
       return IntAtLeast(v, 0, &d.fn.retry_budget);
     },
     [](const Deploy& d) { return std::to_string(d.fn.retry_budget); }},
    {"backoff", kInference,
     [](Deploy& d, Value v) { return PositiveTime(v, &d.fn.retry_backoff); },
     [](const Deploy& d) { return FormatTime(d.fn.retry_backoff); }},
    {"deadline", kInference,
     [](Deploy& d, Value v) { return PositiveTime(v, &d.fn.deadline); },
     [](const Deploy& d) { return FormatTime(d.fn.deadline); }},
};

constexpr Scope kBursty = KindScope(ArrivalKind::kBursty);
constexpr Scope kPeriodic = KindScope(ArrivalKind::kPeriodic);
constexpr Scope kSporadic = KindScope(ArrivalKind::kSporadic);
constexpr Scope kClosed = KindScope(ArrivalKind::kClosed);

// The arrival-shape keys without a useful default (rps, cv, clients,
// think) are always printed.
constexpr SpecKey<Workload> kWorkloadKeys[] = {
    {"rps", kOpenKinds,
     [](Workload& w, Value v) { return PositiveDouble(v, &w.rps); },
     [](const Workload& w) { return FormatDouble(w.rps); }, kPrinted},
    {"cv", KindScope(ArrivalKind::kGamma),
     [](Workload& w, Value v) { return PositiveDouble(v, &w.cv); },
     [](const Workload& w) { return FormatDouble(w.cv); }, kPrinted},
    {"scale", kBursty,
     [](Workload& w, Value v) { return PositiveDouble(v, &w.scale); },
     [](const Workload& w) { return FormatDouble(w.scale); }},
    {"len", kBursty,
     [](Workload& w, Value v) { return PositiveTime(v, &w.burst_len); },
     [](const Workload& w) { return FormatTime(w.burst_len); }},
    {"gap", kBursty,
     [](Workload& w, Value v) { return PositiveTime(v, &w.burst_gap); },
     [](const Workload& w) { return FormatTime(w.burst_gap); }},
    {"amplitude", kPeriodic,
     [](Workload& w, Value v) { return Fraction(v, &w.amplitude); },
     [](const Workload& w) { return FormatDouble(w.amplitude); }},
    {"period", kPeriodic,
     [](Workload& w, Value v) { return PositiveTime(v, &w.period); },
     [](const Workload& w) { return FormatTime(w.period); }},
    {"active", kSporadic,
     [](Workload& w, Value v) { return Fraction(v, &w.active); },
     [](const Workload& w) { return FormatDouble(w.active); }},
    {"spike", kSporadic,
     [](Workload& w, Value v) { return PositiveTime(v, &w.spike); },
     [](const Workload& w) { return FormatTime(w.spike); }},
    {"clients", kClosed,
     [](Workload& w, Value v) { return IntAtLeast(v, 1, &w.clients); },
     [](const Workload& w) { return std::to_string(w.clients); }, kPrinted},
    {"think", kClosed,
     [](Workload& w, Value v) { return PositiveTime(v, &w.think); },
     [](const Workload& w) { return FormatTime(w.think); }, kPrinted},
    {"seed", kAll, [](Workload& w, Value v) { return Seed(v, &w.seed); },
     [](const Workload& w) { return Opt(w.seed); }, kReserved},
    {"start", kAll,
     [](Workload& w, Value v) { return AnyTime(v, &w.start); },
     [](const Workload& w) { return FormatTime(w.start); }},
    {"warmup", kAll,
     [](Workload& w, Value v) { return AnyTime(v, &w.warmup); },
     [](const Workload& w) { return FormatTime(w.warmup); }},
};

template <typename S, std::size_t N>
const SpecKey<S>*
FindKey(const SpecKey<S> (&keys)[N], std::string_view name)
{
  for (const SpecKey<S>& k : keys) {
    if (k.name == name) return &k;
  }
  return nullptr;
}

/**
 * Set `k` on `s` from `value`: the one step the loader and ApplyParam
 * share. On failure `*error` is "<key> <why>" and `s` is untouched.
 */
template <typename S>
bool
SetKey(const SpecKey<S>& k, S* s, std::string_view value,
       std::string* error)
{
  std::string why = (k.scope & LineScope(*s)) == 0
                        ? ScopeError(*s)
                        : k.set(*s, std::string(value));
  if (why.empty()) return true;
  *error = std::string(k.name) + " " + why;
  return false;
}

/** " key=value" for each key in [first, last) that `s` prints. */
template <typename S>
std::string
PrintKeys(const SpecKey<S>* first, const SpecKey<S>* last, const S& s)
{
  static const S kDefaults{};
  std::string out;
  for (; first != last; ++first) {
    if ((first->scope & LineScope(s)) == 0) continue;
    const std::string v = first->get(s);
    if ((first->flags & kPrinted) != 0 || v != first->get(kDefaults)) {
      out.append(" ").append(first->name).append("=").append(v);
    }
  }
  return out;
}

template <typename S, std::size_t N>
std::string
PrintKeys(const SpecKey<S> (&keys)[N], const S& s)
{
  return PrintKeys(std::begin(keys), std::end(keys), s);
}

using Words = std::vector<std::string_view>;

/** Split `line` at whitespace into `*words` (views into `line`). */
void
SplitWords(std::string_view line, Words* words)
{
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  words->clear();
  std::size_t at = line.find_first_not_of(kSpace);
  while (at != std::string_view::npos) {
    const std::size_t end = line.find_first_of(kSpace, at);
    words->push_back(line.substr(at, end - at));
    at = line.find_first_not_of(kSpace, end);
  }
}

/** Apply the `key=value` words in [first, last) through `keys`. */
template <typename S, std::size_t N>
bool
ParseKeys(const SpecKey<S> (&keys)[N], const char* section,
          const std::string_view* first, const std::string_view* last,
          int line_no, S* s, std::string* error)
{
  std::string why;
  for (; first != last; ++first) {
    const std::size_t eq = first->find('=');
    const SpecKey<S>* k = eq == std::string_view::npos
                              ? nullptr
                              : FindKey(keys, first->substr(0, eq));
    if (k == nullptr) {
      return Fail(error, line_no,
                  std::string("unknown ") + section + " key '"
                      + std::string(*first) + "'");
    }
    if (!SetKey(*k, s, first->substr(eq + 1), &why)) {
      return Fail(error, line_no, why);
    }
  }
  return true;
}

bool
ParseDeployLine(Words* words, int line_no, DeploySpec* d,
                std::string* error)
{
  // The task word may stand anywhere on the line and decides which
  // keys apply, so it is taken out before the keys are read.
  const std::size_t n = words->size();
  words->erase(std::remove(words->begin() + 1, words->end(),
                           std::string_view("training")),
               words->end());
  if (words->size() != n) d->fn.type = TaskType::kTraining;
  if (!ParseKeys(kDeployKeys, "deploy", words->data() + 1,
                 words->data() + words->size(), line_no, d, error)) {
    return false;
  }
  if (d->fn.model.empty()) {
    return Fail(error, line_no, "deploy needs model=<catalog-name>");
  }
  return true;
}

bool
ParseWorkloadLine(const Words& words, int line_no, WorkloadSpec* w,
                  std::string* error)
{
  std::int32_t fn = 0;
  if (words.size() < 2 || words[1].substr(0, 3) != "fn="
      || !ParseInt(std::string(words[1].substr(3)), &fn) || fn < 0) {
    return Fail(error, line_no,
                "workload needs fn=<deploy-index> first");
  }
  w->fn = fn;
  if (words.size() < 3) {
    return Fail(error, line_no, "workload needs an arrival kind");
  }
  constexpr int kKinds = static_cast<int>(ArrivalKind::kClosed) + 1;
  int kind = 0;
  while (kind < kKinds
         && words[2] != ToString(static_cast<ArrivalKind>(kind))) {
    ++kind;
  }
  if (kind == kKinds) {
    return Fail(error, line_no,
                "unknown arrival kind '" + std::string(words[2]) + "'");
  }
  w->kind = static_cast<ArrivalKind>(kind);

  const std::size_t at = static_cast<std::size_t>(
      std::find(words.begin() + 3, words.end(), "for") - words.begin());
  if (!ParseKeys(kWorkloadKeys, "workload", words.data() + 3,
                 words.data() + at, line_no, w, error)) {
    return false;
  }
  if (at == words.size()) {
    return Fail(error, line_no, "workload needs a 'for <time>' window");
  }
  if (at + 1 == words.size()
      || !PositiveTime(std::string(words[at + 1]), &w->duration).empty()) {
    return Fail(error, line_no, "'for' wants a time > 0");
  }
  if (at + 2 < words.size()) {
    return Fail(error, line_no,
                "unexpected trailing '" + std::string(words[at + 2])
                    + "' ('for <time>' ends the line)");
  }
  return true;
}

}  // namespace

std::string
ExperimentSpec::ToText() const
{
  std::ostringstream out;
  out << "experiment " << (name_.empty() ? "unnamed" : name_) << "\n";

  const std::string cluster = PrintKeys(kClusterKeys, cluster_);
  if (!cluster.empty()) out << "cluster" << cluster << "\n";
  if (fabric_.storage) {
    out << "storage" << PrintKeys(kStorageKeys, fabric_) << "\n";
  }
  if (fabric_.nic) out << "nic" << PrintKeys(kNicKeys, fabric_) << "\n";

  const SpecKey<DeploySpec>* task_keys = std::find_if(
      std::begin(kDeployKeys), std::end(kDeployKeys),
      [](const SpecKey<DeploySpec>& k) { return k.scope != kAll; });
  for (const DeploySpec& d : deploys_) {
    out << "deploy" << PrintKeys(std::begin(kDeployKeys), task_keys, d);
    if (d.fn.type == TaskType::kTraining) out << " training";
    out << PrintKeys(task_keys, std::end(kDeployKeys), d) << "\n";
  }

  for (const WorkloadSpec& w : workloads_) {
    out << "workload fn=" << w.fn << " " << ToString(w.kind)
        << PrintKeys(kWorkloadKeys, w) << " for " << FormatTime(w.duration)
        << "\n";
  }

  for (const chaos::ScenarioEvent& e : chaos_.events()) {
    out << "chaos " << chaos::FormatEventLine(e) << "\n";
  }

  if (run_for_ > 0) out << "run for " << FormatTime(run_for_) << "\n";
  if (!export_prefix_.empty()) out << "export " << export_prefix_ << "\n";
  return out.str();
}

bool
ExperimentSpec::Parse(const std::string& text, ExperimentSpec* out,
                      std::string* error)
{
  ExperimentSpec spec;
  std::vector<int> workload_lines;  // for end-of-parse validation
  std::vector<int> chaos_lines;
  std::istringstream in(text);
  std::string line;
  Words words;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    line = spec_text::StripComment(line);
    SplitWords(line, &words);
    if (words.empty()) continue;  // blank (or comment-only) line
    const std::string_view head = words[0];
    const std::string_view* args = words.data() + 1;
    const std::string_view* end = words.data() + words.size();
    // Directives with a fixed word count reject anything past it.
    const auto no_trailing = [&](std::size_t count) {
      if (words.size() <= count) return true;
      return Fail(error, line_no,
                  "unexpected trailing '" + std::string(words[count])
                      + "'");
    };
    if (head == "experiment") {
      if (words.size() < 2) {
        return Fail(error, line_no, "experiment needs a name");
      }
      if (!no_trailing(2)) return false;
      spec.set_name(std::string(words[1]));
    } else if (head == "cluster") {
      if (!ParseKeys(kClusterKeys, "cluster", args, end, line_no,
                     &spec.cluster_, error)) {
        return false;
      }
    } else if (head == "storage") {
      spec.fabric_.storage = true;
      if (!ParseKeys(kStorageKeys, "storage", args, end, line_no,
                     &spec.fabric_, error)) {
        return false;
      }
    } else if (head == "nic") {
      spec.fabric_.nic = true;
      if (!ParseKeys(kNicKeys, "nic", args, end, line_no, &spec.fabric_,
                     error)) {
        return false;
      }
    } else if (head == "deploy") {
      DeploySpec d;
      if (!ParseDeployLine(&words, line_no, &d, error)) return false;
      spec.deploys_.push_back(std::move(d));
    } else if (head == "workload") {
      WorkloadSpec w;
      if (!ParseWorkloadLine(words, line_no, &w, error)) return false;
      spec.workloads_.push_back(w);
      workload_lines.push_back(line_no);
    } else if (head == "chaos") {
      const std::string rest = line.substr(
          static_cast<std::size_t>(head.data() + head.size() - line.data()));
      if (!chaos::ScenarioSpec::ParseEventLine(rest, line_no,
                                               &spec.chaos_, error)) {
        return false;
      }
      chaos_lines.push_back(line_no);
    } else if (head == "run") {
      if (words.size() < 3 || words[1] != "for"
          || !PositiveTime(std::string(words[2]), &spec.run_for_).empty()) {
        return Fail(error, line_no, "expected 'run for <time>'");
      }
      if (!no_trailing(3)) return false;
    } else if (head == "export") {
      if (words.size() < 2) {
        return Fail(error, line_no, "export needs a path prefix");
      }
      if (!no_trailing(2)) return false;
      spec.export_prefix_ = std::string(words[1]);
    } else {
      return Fail(error, line_no,
                  "unknown directive '" + std::string(head)
                      + "' (want experiment/cluster/storage/nic/deploy/"
                        "workload/chaos/run/export)");
    }
  }

  // Cross-line validation: references resolve against the deploy list,
  // reported with the referencing line's number.
  const auto n_deploys = static_cast<std::int64_t>(spec.deploys_.size());
  const auto fn_type = [&](std::int64_t fn) {
    return spec.deploys_[static_cast<std::size_t>(fn)].fn.type;
  };
  for (std::size_t i = 0; i < spec.workloads_.size(); ++i) {
    const WorkloadSpec& w = spec.workloads_[i];
    const int at = workload_lines[i];
    if (w.fn >= n_deploys) {
      return Fail(error, at,
                  "workload fn=" + std::to_string(w.fn)
                      + " has no matching deploy (have "
                      + std::to_string(n_deploys) + ")");
    }
    if (fn_type(w.fn) != TaskType::kInference) {
      return Fail(error, at,
                  "workload fn=" + std::to_string(w.fn)
                      + " targets a training deploy");
    }
    if (w.kind == ArrivalKind::kClosed) {
      for (const WorkloadSpec& other : spec.workloads_) {
        if (other.fn == w.fn && &other != &w) {
          return Fail(error, at,
                      "fn=" + std::to_string(w.fn)
                          + " is driven closed-loop; it cannot carry "
                            "another workload");
        }
      }
    }
  }
  const auto& events = spec.chaos_.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const chaos::ScenarioEvent& e = events[i];
    const int at = chaos_lines[i];
    if (chaos::IsFabric(e.kind) && !spec.fabric_.enabled()) {
      return Fail(error, at,
                  std::string(chaos::ToString(e.kind))
                      + " needs a storage/nic line (the fabric is "
                        "disabled)");
    }
    if (e.kind == chaos::FaultKind::kTrafficSurge
        || e.kind == chaos::FaultKind::kCheckpointEvery
        || chaos::IsShedding(e.kind)) {
      if (e.function >= n_deploys) {
        return Fail(error, at,
                    "chaos fn=" + std::to_string(e.function)
                        + " has no matching deploy");
      }
      if (e.kind == chaos::FaultKind::kTrafficSurge
          && fn_type(e.function) != TaskType::kInference) {
        return Fail(error, at, "surge targets a training deploy");
      }
      if (e.kind == chaos::FaultKind::kCheckpointEvery
          && fn_type(e.function) != TaskType::kTraining) {
        return Fail(error, at,
                    "checkpoint_every targets an inference deploy");
      }
      if (chaos::IsShedding(e.kind)
          && fn_type(e.function) != TaskType::kInference) {
        return Fail(error, at,
                    std::string(chaos::ToString(e.kind))
                        + " targets a training deploy");
      }
    }
  }

  spec.chaos_.set_name(spec.name_);
  if (out != nullptr) *out = std::move(spec);
  return true;
}

// --- parameter paths (sweep axes) ------------------------------------

namespace {

bool
FailPath(std::string* error, const std::string& path,
         const std::string& msg)
{
  if (error != nullptr) *error = path + ": " + msg;
  return false;
}

/**
 * Split "deploy[3].provision" into index 3 and key "provision", given
 * that `path` starts with `head` + '['.
 */
bool
SplitIndexed(const std::string& path, const std::string& head,
             std::size_t limit, std::size_t* index, std::string* key,
             std::string* error)
{
  const std::size_t open = head.size();
  const std::size_t close = path.find(']', open);
  if (close == std::string::npos || close + 1 >= path.size()
      || path[close + 1] != '.') {
    return FailPath(error, path, "want " + head + "[<index>].<key>");
  }
  std::int32_t i = 0;
  if (!ParseInt(path.substr(open + 1, close - open - 1), &i) || i < 0) {
    return FailPath(error, path, "index must be a non-negative int");
  }
  if (static_cast<std::size_t>(i) >= limit) {
    return FailPath(error, path,
                    "index " + std::to_string(i)
                        + " out of range (base has "
                        + std::to_string(limit) + ")");
  }
  *index = static_cast<std::size_t>(i);
  *key = path.substr(close + 2);
  return true;
}

/** Set `section.key` through its table entry, as the loader would. */
template <typename S, std::size_t N>
bool
ApplyKey(const SpecKey<S> (&keys)[N], const char* section,
         const std::string& path, const std::string& key,
         const std::string& value, S* s, std::string* error)
{
  const SpecKey<S>* k = FindKey(keys, key);
  std::string why;
  if (k == nullptr) {
    why = std::string("unknown ") + section + " key '" + key + "'";
  } else if ((k->flags & kReserved) != 0) {
    why = "is reserved: the sweep's seed axis owns per-run seeding, and "
          "a function's identity is not a policy knob";
  } else if (SetKey(*k, s, value, &why)) {
    return true;
  }
  return FailPath(error, path, why);
}

/**
 * Scale the embedded scenario's load-pressure magnitudes. Additive
 * magnitudes (surge extra-RPS) scale linearly; multiplicative factors
 * f > 1 (overload, cold-start inflation, storage brownout) scale in
 * excess-over-one so intensity 1 is the identity and any intensity > 0
 * keeps the factor on the valid side of 1. Targeted faults, throttles
 * and checkpoint policies are left alone — intensity means "how hard
 * does the pressure push", not "which faults fire".
 */
bool
ApplyChaosIntensity(ExperimentSpec* spec, const std::string& path,
                    const std::string& value, std::string* error)
{
  double intensity = 0.0;
  const std::string why = PositiveDouble(value, &intensity);
  if (!why.empty()) return FailPath(error, path, why);
  chaos::ScenarioSpec scaled(spec->chaos().name());
  for (chaos::ScenarioEvent e : spec->chaos().events()) {
    switch (e.kind) {
      case chaos::FaultKind::kTrafficSurge:
        e.magnitude *= intensity;
        break;
      case chaos::FaultKind::kOverload:
      case chaos::FaultKind::kColdStartInflation:
      case chaos::FaultKind::kStorageBrownout:
        e.magnitude = 1.0 + (e.magnitude - 1.0) * intensity;
        break;
      default:
        break;
    }
    scaled.Add(e);
  }
  spec->chaos() = std::move(scaled);
  return true;
}

}  // namespace

bool
ApplyParam(ExperimentSpec* spec, const std::string& path,
           const std::string& value, std::string* error)
{
  std::size_t index = 0;
  std::string key;
  if (path.compare(0, 8, "cluster.") == 0) {
    return ApplyKey(kClusterKeys, "cluster", path, path.substr(8), value,
                    &spec->cluster(), error);
  }
  if (path.compare(0, 7, "deploy[") == 0) {
    return SplitIndexed(path, "deploy", spec->deploys().size(), &index,
                        &key, error)
           && ApplyKey(kDeployKeys, "deploy", path, key, value,
                       &spec->deploys()[index], error);
  }
  if (path.compare(0, 9, "workload[") == 0) {
    if (!SplitIndexed(path, "workload", spec->workloads().size(), &index,
                      &key, error)) {
      return false;
    }
    WorkloadSpec& w = spec->workloads()[index];
    if (key == "duration") {  // the `for` window
      const std::string why = PositiveTime(value, &w.duration);
      return why.empty() || FailPath(error, path, why);
    }
    return ApplyKey(kWorkloadKeys, "workload", path, key, value, &w, error);
  }
  if (path == "chaos.intensity") {
    return ApplyChaosIntensity(spec, path, value, error);
  }
  if (path == "run.for") {
    TimeUs t = 0;
    const std::string why = PositiveTime(value, &t);
    if (why.empty()) spec->RunFor(t);
    return why.empty() || FailPath(error, path, why);
  }
  return FailPath(error, path,
                  "unknown parameter path (want cluster.<key>, "
                  "deploy[i].<key>, workload[i].<key>, "
                  "chaos.intensity or run.for)");
}

}  // namespace dilu::experiment

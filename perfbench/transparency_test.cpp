// Decorator-transparency test for the benchmark harness: for all seven
// mechanism kinds, on a static and on a time-varying substrate, a run
// wrapped in TimedMechanism must digest equal to the unwrapped run, and the
// wrapper must count exactly one `aggregate` call per committed round.
// With eval_every = 1 every committed round records one metric point, so
// the point count is the server's committed-round count.
//
// Exit code 0 when every check passes, 1 otherwise.

#include <cstdio>
#include <string>

#include "scenario/spec.hpp"
#include "timed_mechanism.hpp"

namespace {

using namespace airfedga;

scenario::ScenarioSpec small_spec(const std::string& substrate) {
  scenario::ScenarioSpec s;
  s.name = "transparency";
  s.dataset = {"mnist_like", 480, 120, 3};
  s.model.kind = "softmax";
  s.partition.workers = 8;
  s.learning_rate = 0.3;
  s.batch_size = 16;
  s.local_steps = 2;
  s.substrate.kind = substrate;
  s.substrate.churn_period = 120.0;
  s.substrate.energy_budget = 40.0;
  s.time_budget = 300.0;
  s.max_rounds = 12;
  s.eval_every = 1;
  s.eval_samples = 60;
  s.seed = 11;
  s.threads = 2;
  for (const char* kind :
       {"fedavg", "airfedavg", "dynamic", "tifl", "fedasync", "semiasync", "airfedga"}) {
    scenario::MechanismSpec m;
    m.kind = kind;
    s.mechanisms.push_back(m);
  }
  return s;
}

}  // namespace

int main() {
  int failures = 0;
  for (const char* substrate : {"static", "churn+energy+csi_error"}) {
    const scenario::ScenarioSpec spec = small_spec(substrate);
    scenario::BuiltScenario built = scenario::build(spec);
    for (std::size_t i = 0; i < spec.mechanisms.size(); ++i) {
      const fl::Metrics plain = built.mechanisms[i]->run(built.cfg);
      perfbench::TimedMechanism timed(spec.mechanisms[i].make());
      const fl::Metrics wrapped = timed.run(built.cfg);

      const perfbench::HookStats& st = timed.stats();
      const bool same = plain.digest() == wrapped.digest();
      const bool counted = st.aggregate.calls == wrapped.points().size() && st.aggregate.calls > 0;
      const bool ran = st.check.calls == 1 && st.cohorts.calls == 1;
      std::printf("%-8s %-24s %-10s digest %s/%s aggregate_calls=%zu committed=%zu\n",
                  same && counted && ran ? "ok" : "FAIL", substrate,
                  built.mechanism_names[i].c_str(), plain.digest().c_str(),
                  wrapped.digest().c_str(), st.aggregate.calls, wrapped.points().size());
      if (!(same && counted && ran)) ++failures;
    }
  }
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}

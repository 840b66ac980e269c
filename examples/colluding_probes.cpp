// Colluding probe-flippers (Section 4.3): 20% of peers strategically invert
// the probe results they publish -- claiming links up to frame innocent
// forwarders and links down to shield guilty confederates.  This example
// measures how much the blame distributions blur, then uses the binomial
// accusation model to pick the sliding-window threshold m that restores
// sub-1% formal-accusation error rates.
//
// Run: ./colluding_probes [seed]

#include <cstdio>

#include "core/verdicts.h"
#include "seed_arg.h"
#include "sim/experiments.h"

using namespace concilium;

namespace {

sim::BlameExperimentResult measure(double malicious, std::uint64_t seed) {
    sim::ScenarioParams params;
    params.topology = net::small_params();
    params.topology.end_hosts = 500;
    params.overlay_nodes_override = 80;
    params.duration = 90 * util::kMinute;
    params.malicious_fraction = malicious;
    params.seed = seed;
    const sim::Scenario world(params);
    sim::BlameExperimentParams exp;
    exp.samples = 8000;
    const sim::ExperimentDriver driver({.seed = seed + 5});
    return sim::run_blame_experiment(world, exp, driver);
}

}  // namespace

int main(int argc, char** argv) {
    const std::uint64_t seed = examples::seed_arg(argc, argv, 11);

    std::printf("measuring per-drop conviction rates (threshold 40%%)...\n\n");
    const auto honest = measure(0.0, seed);
    const auto colluding = measure(0.20, seed);

    std::printf("%-28s %-22s %-22s\n", "", "honest reporters",
                "20% colluders");
    std::printf("%-28s %-22.4f %-22.4f\n",
                "innocent convicted (p_good)", honest.p_good,
                colluding.p_good);
    std::printf("%-28s %-22.4f %-22.4f\n", "faulty convicted (p_faulty)",
                honest.p_faulty, colluding.p_faulty);

    std::printf("\ncollusion blurs the evidence, but the sliding window "
                "(w = 100) absorbs it:\n");
    const int w = 100;
    for (const auto* label : {"honest", "colluding"}) {
        const auto& r = label[0] == 'h' ? honest : colluding;
        const auto m =
            core::minimal_accusation_threshold(w, r.p_good, r.p_faulty, 0.01);
        if (m.has_value()) {
            std::printf(
                "  %-10s minimal m with both error rates < 1%%: m = %d "
                "(FP %.5f, FN %.5f)\n",
                label, *m, core::accusation_false_positive(w, *m, r.p_good),
                core::accusation_false_negative(w, *m, r.p_faulty));
        } else {
            std::printf("  %-10s no m achieves sub-1%% error rates\n", label);
        }
    }
    std::printf("\npaper reference: m = 6 honest, m = 16 with 20%% "
                "colluders (Figure 6)\n");
    return 0;
}

"""The library-scalar workload: scalar public API calls in one process.

``run_pass`` makes one pass over the seeded arguments and returns every
number the calls produced, in a fixed order.  Run as a script, this file is
the measured process: it imports the package once, warms up, then times
passes until the deadline and prints the timings and the first pass's
outputs as JSON.

Each batch of passes is timed between two loop probes (see ``speed.py``).

    PYTHONPATH=src python3 perfbench/scalar.py ARGS.json SECONDS
"""

import json
import sys
import time

import speed

BATCH_S = 0.2  # passes between two probes


def run_pass(api, calls):
    """Make every call once; return the outputs as a flat list of floats."""
    out = []
    add = out.extend
    params = api.DimerParameters
    af = params(calls["j_af"], calls["g_factor"])
    for j, t in calls["correlation_set"]:
        m = api.correlation_set(params(j), t)
        add((m.mutual_information, m.classical, m.discord, m.concurrence, m.entanglement))
    for g in calls["measures"]:
        m = api.measures_from_correlator(g)
        add((m.mutual_information, m.classical, m.discord, m.concurrence, m.entanglement))
    for t, chi in calls["chi"]:
        out.append(api.correlator_from_susceptibility(af, chi, t))
    for cm, side in calls["cm"]:
        out.append(api.correlator_from_specific_heat(af, cm, side=side))
    for u in calls["u"]:
        out.append(api.correlator_from_internal_energy(af, u))
    for j, g in calls["t_of_g"]:
        out.append(api.temperature_from_correlator(params(j), g))
    for t, g, sigma in calls["result"]:
        r = api.result_from_correlator(t, api.ValueWithUncertainty(g, sigma), "neutron")
        add((r.correlator.value, r.correlator.sigma, r.discord.value, r.discord.sigma,
             r.classical, r.mutual_information, r.entanglement))
    for j in calls["crossing"]:
        p = params(j)
        x, fx = api.find_crossing(
            lambda t: api.correlation_set(p, t).discord,
            lambda t: api.correlation_set(p, t).entanglement,
            0.2 * abs(j),
            1.0 * abs(j),
        )
        add((x, fx))
    for j in calls["schottky"]:
        add(api.schottky_maximum(params(j)))
    for j in calls["chi_max"]:
        add(api.susceptibility_maximum(params(j, calls["g_factor"])))
    return out


def main(argv):
    with open(argv[1], encoding="utf-8") as fh:
        calls = json.load(fh)
    seconds = float(argv[2])
    import dimer_discord as api

    run_pass(api, calls)  # warm-up: lazy state and caches settle before timing
    first = run_pass(api, calls)
    durations, scaled, mismatched = [], [], 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        before = speed.loop_probe()
        batch = []
        batch_end = time.perf_counter() + BATCH_S
        while time.perf_counter() < batch_end:
            t0 = time.perf_counter()
            out = run_pass(api, calls)
            batch.append(time.perf_counter() - t0)
            if out != first:
                mismatched += 1
        scale = speed.scale(speed.REFERENCE_LOOP_S, before, speed.loop_probe())
        durations += batch
        scaled += [d * scale for d in batch]
    json.dump({"outputs": first, "durations": durations, "scaled": scaled,
               "mismatched": mismatched}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

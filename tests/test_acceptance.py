"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` so the per-criterion lines
print as they complete.  The full suite takes a few minutes; the bound
anchor alone draws ten million trajectories, and criterion 4a runs a
million lottery steps.

Criteria 4a and 4c check long-run claims (the fractions equalize below
exponent 1, the largest node takes over above it), so they run at the
horizons where those claims hold for the desk configuration: 1e6 steps
for 4a and 3e4 for 4c.  At the 1e4 steps of the other dynamics criteria
the lottery's own noise keeps the max/min ratio near 1.2 even from an
equal start.  Both long runs use ``summarize``, which keeps no per-step
record, so their memory does not grow with the horizon.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from decentsim.bound import WalkParams, estimate_g, exact_g, jump_prob, u_sensitivity, WalkState
from decentsim.cli import results_payload_bytes, run, sim_config
from decentsim.conditions import (
    check_gr,
    check_linearity,
    check_nd,
    check_ns,
    verify_merge_witness,
    verify_split_witness,
)
from decentsim.config import parse_config
from decentsim.core import PlayerMap, PowerVector
from decentsim.dynamics import (
    SimConfig,
    ed_verdict,
    monotonicity_stats,
    simulate,
    summarize,
)
from decentsim.incentives import GammaReward, Linear, PoW, ZeroSybilCost
from decentsim.metrics import ProducerDataset, gini, report, shannon_entropy, top_share_subset

ANCHOR_SEED = 424242
GRID_SEED = 1337
GRID_SAMPLES = 200_000
SIMULATE_CONFIGS = Path(__file__).resolve().parents[1] / "configs" / "simulate"
EQUALIZE_HORIZON = 1_000_000  # criterion 4a
CONCENTRATE_HORIZON = 30_000  # criterion 4c
F_GRID = (1e-4, 1e-3, 1e-2)
EPS_GRID = (0.0, 9.0, 99.0, 999.0)
RHO_PAIR = (0.1, 0.01)


def criterion(num: str, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[criterion {num}] {status}: {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


# ----------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def bound_anchor():
    params = WalkParams(
        f=1e-4, rho=0.1, epsilon=0.0, u=1e-3, k_max=100,
        samples=10_000_000, seed=ANCHOR_SEED,
    )
    started = time.perf_counter()
    result = estimate_g(params)
    sensitivity = u_sensitivity(params)
    elapsed = time.perf_counter() - started
    return result, sensitivity, elapsed


@pytest.fixture(scope="module")
def bound_grid():
    cells = {}
    for rho in RHO_PAIR:
        for eps in EPS_GRID:
            for f in F_GRID:
                cells[(f, eps, rho)] = estimate_g(
                    WalkParams(
                        f=f, rho=rho, epsilon=eps, u=1e-3, k_max=100,
                        samples=GRID_SAMPLES, seed=GRID_SEED,
                    )
                )
    return cells


def trichotomy_run(gamma: float, **overrides) -> SimConfig:
    """The run of the checked-in desk config at this lottery exponent."""
    path = SIMULATE_CONFIGS / f"trichotomy_gamma_{gamma}.json"
    return sim_config(parse_config("simulate", file=path, overrides=overrides))


@pytest.fixture(scope="module")
def trichotomy():
    runs = {}
    for gamma in (0.5, 1.0, 1.5):
        config = trichotomy_run(gamma)
        started = time.perf_counter()
        trajectories = simulate(config)
        runs[gamma] = (config, trajectories, time.perf_counter() - started)
    return runs


# ---------------------------------------------------------------- criteria

class TestCriterion1BoundAnchor:
    def test_estimate_in_band_with_ci(self, bound_anchor):
        result, sensitivity, elapsed = bound_anchor
        floor = jump_prob(WalkState(1.0, 1e-4), 0.0, 0.1)
        ok = (
            result.estimate >= 9.9e-6
            and result.estimate >= floor
            and 5e-6 <= result.estimate <= 1e-3
            and result.ci_low <= result.estimate <= result.ci_high
            and result.ci_high - result.ci_low > 0
            and elapsed < 600.0
        )
        criterion(
            "1", "bound anchor estimate within [5e-6, 1e-3] above the k=0 floor",
            ok,
            f"estimate={result.estimate:.4e} CI=({result.ci_low:.3e},{result.ci_high:.3e}) "
            f"target~1e-5 elapsed={elapsed:.0f}s",
        )

    def test_exact_bound_inside_monte_carlo_ci(self, bound_anchor):
        result, _, _ = bound_anchor
        exact = exact_g(result.params)
        z = (exact.estimate - result.estimate) / result.std_error
        criterion(
            "1", "exact bound at the anchor inside the 10M-sample Monte Carlo CI",
            result.ci_low <= exact.estimate <= result.ci_high,
            f"exact={exact.estimate:.6e} mc={result.estimate:.6e} z={z:+.2f}",
        )

    def test_reports_per_k_and_u_sensitivity(self, bound_anchor):
        result, sensitivity, _ = bound_anchor
        estimates = [e for _, e in sensitivity]
        spread = (max(estimates) - min(estimates)) / max(estimates)
        ok = (
            len(result.per_k) == 101
            and all(c >= 0 for c in result.per_k)
            and [u for u, _ in sensitivity] == [1e-2, 1e-3, 1e-4]
            and all(math.isfinite(e) for e in estimates)
            and spread < 0.25
        )
        criterion(
            "1", "per-k contributions and u-sensitivity documented",
            ok,
            f"k0={result.per_k[0]:.3e} tail_k100={result.per_k[-1]:.3e} u-spread={spread:.2%}",
        )


class TestCriterion2Monotonicity:
    @staticmethod
    def _non_decreasing(cells):
        # a decrease only counts against the claim when the CIs are disjoint
        for lo, hi in zip(cells, cells[1:]):
            if lo.estimate > hi.estimate and lo.ci_low > hi.ci_high:
                return False
        return True

    def test_non_decreasing_in_f_and_epsilon(self, bound_grid):
        ok = True
        for rho in RHO_PAIR:
            for eps in EPS_GRID:
                ok &= self._non_decreasing([bound_grid[(f, eps, rho)] for f in F_GRID])
            for f in F_GRID:
                ok &= self._non_decreasing([bound_grid[(f, eps, rho)] for eps in EPS_GRID])
        criterion("2", "sweep estimates non-decreasing in f and in epsilon", ok)

    def test_smaller_rho_gives_smaller_estimates(self, bound_grid):
        ok = True
        for eps in EPS_GRID:
            for f in F_GRID:
                small = bound_grid[(f, eps, 0.01)]
                large = bound_grid[(f, eps, 0.1)]
                if small.estimate > large.estimate and small.ci_low > large.ci_high:
                    ok = False
        criterion("2", "estimates at rho=1e-2 pointwise below rho=1e-1", ok)

    def test_exact_cells_within_monte_carlo_error(self, bound_grid):
        worst = 0.0
        ok = True
        for cell in bound_grid.values():
            gap = abs(exact_g(cell.params).estimate - cell.estimate)
            if cell.std_error == 0.0:
                ok &= gap == 0.0  # a start on target, 1 on both paths
            else:
                worst = max(worst, gap / cell.std_error)
        ok &= worst <= 4.0
        criterion("2", "exact bound within 4 SE of Monte Carlo on every grid cell", ok,
                  f"worst={worst:.2f} SE")


class TestCriterion3P0Bound:
    def test_p0_bounded_by_analytic_form(self, bound_grid, bound_anchor):
        anchor, _, _ = bound_anchor
        checked = list(bound_grid.items()) + [((1e-4, 0.0, 0.1), anchor)]
        ok = True
        worst = ""
        for (f, eps, rho), cell in checked:
            bound = (1.0 + eps) * f
            if cell.p0 > bound + 3.0 * cell.p0_std_error + 1e-15:
                ok = False
                worst = f"violated at f={f} eps={eps} rho={rho}: p0={cell.p0:.3e} > {bound:.3e}"
        criterion("3", "p0 <= (1+eps)*f + 3 sigma at every tested cell", ok, worst)


class TestCriterion4Trichotomy:
    def test_runs_complete_within_a_minute(self, trichotomy):
        times = {g: elapsed for g, (_, _, elapsed) in trichotomy.items()}
        ok = all(t <= 60.0 for t in times.values())
        criterion(
            "4", "each desk-scale run within one minute",
            ok, " ".join(f"gamma={g}:{t:.1f}s" for g, t in times.items()),
        )

    def test_sublinear_equalizes(self):
        config = trichotomy_run(0.5, horizon=EQUALIZE_HORIZON)
        window = config.effective_window()
        started = time.perf_counter()
        verdict = summarize(config).verdict
        elapsed = time.perf_counter() - started
        ok = verdict.converged_fraction >= 0.9
        criterion(
            "4a", "gamma=0.5 final-window max/min ratio <= 1.1 in >= 90/100 seeds",
            ok,
            f"converged={verdict.converged_fraction:.0%} "
            f"mean_final_ratio={verdict.mean_final_ratio:.3f} "
            f"horizon={EQUALIZE_HORIZON} window={window} elapsed={elapsed:.0f}s",
        )

    def test_proportional_is_a_martingale(self, trichotomy):
        config, trajectories, _ = trichotomy[1.0]
        finals = np.stack([t.betas[-1] for t in trajectories])
        initial = trajectories[0].betas[0]
        means = finals.mean(axis=0)
        ses = finals.std(axis=0, ddof=1) / math.sqrt(len(trajectories))
        z = np.abs(means - initial) / ses
        verdict = ed_verdict(trajectories, config.epsilon, config.delta, config.effective_window())
        ok = bool(np.all(z <= 3.0)) and verdict.converged_fraction < 0.5
        criterion(
            "4b", "gamma=1 mean fractions hold initial values; ratio stays wide",
            ok,
            f"max|z|={z.max():.2f} converged={verdict.converged_fraction:.0%}",
        )

    def test_superlinear_concentrates(self):
        summary = summarize(trichotomy_run(1.5, horizon=CONCENTRATE_HORIZON))
        count = int((summary.final_betas.max(axis=1) >= 0.99).sum())
        ok = count >= 90
        criterion(
            "4c", "gamma=1.5 top fraction >= 0.99 in >= 90/100 seeds",
            ok,
            f"count={count}/100 horizon={CONCENTRATE_HORIZON}",
        )


class TestCriterion5SlopeSigns:
    def test_equalizing_slopes(self, trichotomy):
        _, trajectories, _ = trichotomy[0.5]
        stats = monotonicity_stats(trajectories)
        ok = (
            stats.slope_min >= -2.0 * stats.se_min
            and stats.slope_max <= 2.0 * stats.se_max
        )
        criterion(
            "5", "gamma=0.5 poorest fraction does not drift down, richest not up",
            ok,
            f"slope_min={stats.slope_min:.2e}(se {stats.se_min:.1e}) "
            f"slope_max={stats.slope_max:.2e}(se {stats.se_max:.1e})",
        )

    def test_martingale_slopes_flat(self, trichotomy):
        _, trajectories, _ = trichotomy[1.0]
        stats = monotonicity_stats(trajectories)
        ok = (
            abs(stats.slope_min) <= 2.0 * stats.se_min
            and abs(stats.slope_max) <= 2.0 * stats.se_max
        )
        criterion(
            "5", "gamma=1 extremal-node slopes within 2 SE of zero",
            ok,
            f"z_min={stats.slope_min / stats.se_min:+.2f} "
            f"z_max={stats.slope_max / stats.se_max:+.2f}",
        )


class TestCriterion6ConditionOracles:
    def test_fixed_cost_merge_witness(self):
        model = PoW(12.5, 0, 1)
        pv, pm = PowerVector((1.0, 1.0)), PlayerMap(("A", "B"))
        res = check_nd(model, pv, pm, m=2)
        replayed = verify_merge_witness(model, pv, res.witness) if res.witness else 0.0
        ok = (
            not res.holds
            and res.witness is not None
            and abs(replayed - res.witness.gain) <= 1e-9 * max(1.0, abs(replayed))
            and res.witness.separate_total == pytest.approx(10.5)
            and res.witness.merged_total == pytest.approx(11.5)
        )
        criterion("6", "work model with fixed cost flagged merge-violating", ok,
                  f"gain={res.witness.gain:.6f}" if res.witness else "no witness")

    def test_square_root_split_witness(self):
        model = GammaReward(3, 0.5)
        pv, pm = PowerVector((4.0, 1.0)), PlayerMap(("A", "B"))
        default = check_ns(model, ZeroSybilCost(), pv, pm, delta=0)
        pinned = check_ns(model, ZeroSybilCost(), pv, pm, delta=100, max_parts=4)
        w = pinned.witness
        replay = verify_split_witness(model, ZeroSybilCost(), pv, pm, w) if w else 0.0
        ok = (
            not default.holds
            and not pinned.holds
            and w is not None
            and w.parts == (1.0, 1.0, 1.0, 1.0)
            and abs(w.gain - 0.4) <= 1e-9
            and abs(replay - w.gain) <= 1e-9
        )
        criterion("6", "square-root lottery flagged split-violating at gain 0.4", ok,
                  f"gain={w.gain:.10f}" if w else "no witness")

    def test_linear_family_is_neutral_and_linear(self):
        model = Linear("inverse-total", 3.0)
        pv, pm = PowerVector((2.0, 1.0, 1.0)), PlayerMap(("A", "B", "C"))
        gr = check_gr(model, pv, m=3)
        nd = check_nd(model, pv, pm, m=3)
        ns = check_ns(model, ZeroSybilCost(), pv, pm, delta=0)
        lin = check_linearity(model, 64, GRID_SEED)
        ok = gr.holds and nd.holds and ns.holds and lin.is_linear and lin.max_violation <= 1e-9
        criterion("6", "linear family passes coverage, merge and split checks", ok,
                  f"max_violation={lin.max_violation:.2e}")

    def test_linearity_probe_matches_neutrality(self):
        cases = {
            "linear": (Linear("inverse-total", 3.0), True),
            "sqrt-lottery": (GammaReward(3, 0.5), False),
            "fixed-cost-work": (PoW(12.5, 0, 1), False),
        }
        ok = True
        for name, (model, expect_linear) in cases.items():
            pv, pm = PowerVector((2.0, 1.0, 1.0)), PlayerMap(("A", "B", "C"))
            nd = check_nd(model, pv, pm, m=3)
            ns = check_ns(model, ZeroSybilCost(), pv, pm, delta=0)
            lin = check_linearity(model, 64, GRID_SEED)
            ok &= lin.is_linear == expect_linear
            ok &= (nd.holds and ns.holds) == lin.is_linear
        criterion("6", "linearity probe agrees with merge/split neutrality", ok)


class TestCriterion7MetricsAnchors:
    def test_uniform_delegate_entropy(self):
        h21 = shannon_entropy([10] * 21)
        h101 = shannon_entropy([10] * 101)
        g21 = gini([10] * 21)
        ok = abs(h21 - 4.392) <= 0.005 and abs(h101 - 6.658) <= 0.01 and g21 == 0.0
        criterion("7", "uniform delegate entropies at 21 and 101 producers", ok,
                  f"H21={h21:.4f} H101={h101:.4f} gini21={g21}")

    def test_gini_and_boundary(self):
        g = gini([1, 2, 3])
        ds = ProducerDataset((("a", 5), ("b", 3), ("c", 2)))
        members = len(top_share_subset(ds, 0.5).entries)
        ok = abs(g - 0.2222) <= 1e-4 and members == 1
        criterion("7", "gini of {1,2,3} and strict half-share boundary", ok,
                  f"gini={g:.6f} half-share members={members}")


class TestCriterion8Determinism:
    CONFIGS = [
        ("bound", {"f": 1e-3, "rho": 0.1, "samples": 20_000, "seed": 5}),
        ("sweep", {"f_grid": "1e-3,1e-2", "epsilon_grid": "0,9", "rho_grid": "0.1",
                   "samples": 5_000, "seed": 5}),
        ("simulate", {"model": "gamma", "br": 3.0, "gamma": 0.5, "r_max": 3.0,
                      "horizon": 500, "n_nodes": 3, "init": "explicit",
                      "init_powers": "4,2,1", "seeds": "0,1,2,3"}),
        ("check", {"model": "pow", "br": 12.5, "c2": 1.0, "powers": "1,1",
                   "m": 2, "seed": 7}),
        ("anchors", {}),
    ]

    def test_identical_config_and_seed_reproduce_payloads(self, tmp_path):
        producers = tmp_path / "producers.csv"
        producers.write_text(
            "address,blocks\n" + "\n".join(f"a{i},{i + 1}" for i in range(12)) + "\n",
            encoding="utf-8",
        )
        configs = self.CONFIGS + [("metrics", {"input": str(producers)})]
        mismatched = []
        for sub, overrides in configs:
            cfg = parse_config(sub, overrides=dict(overrides))
            first = results_payload_bytes(run(cfg))
            second = results_payload_bytes(run(cfg))
            if first != second:
                mismatched.append(sub)
        criterion("8", "every subcommand reproduces its results payload byte for byte",
                  not mismatched, f"mismatched={mismatched}" if mismatched else "6 subcommands")

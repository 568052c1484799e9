#!/usr/bin/env python3
"""Ring ensembles: exponential whitening, 1/N variance, and a rigorous window.

Averaged over marker placements, the mean color difference follows
(1 - 2 mu)^t exactly, with fluctuations of order 1/sqrt(N).  The bound
schedule turns that into a guarantee: past t_start and up to N^alpha / 2,
the chance that |delta / N| ever leaves [-eps, eps] decays exponentially in
N^(1 - alpha), provided the ring is large enough for the bound to bite.
"""

from __future__ import annotations

from equilab import expected_delta_bar, ring_bound_schedule, run_kac_ensemble


def ensemble_against_formula(n: int = 512, mu: float = 0.3, histories: int = 4000):
    result = run_kac_ensemble(n, mu, histories, t_max=16, epsilon=0.15, seed=7)
    print(f"N = {n}, mu = {mu}, M = {histories} rings:")
    print(f"{'t':>4} {'mean':>10} {'(1-2mu)^t':>10} {'N*var':>8} {'p_dev':>8}")
    for t in (0, 1, 2, 4, 8, 16):
        want = expected_delta_bar(mu, t, n)
        print(f"{t:4d} {result.mean[t]:10.5f} {want:10.5f} "
              f"{n * result.variance[t]:8.3f} {result.p_dev[t]:8.4f}")
    lam = 1.0 - 2.0 * mu
    print(f"  stationary N*var level: (1+lam^2)/(1-lam^2) = "
          f"{(1 + lam**2) / (1 - lam**2):.3f}")


def bound_schedule(epsilon: float = 0.15, alpha: float = 0.5, mu: float = 0.3):
    sched = ring_bound_schedule(epsilon, alpha, mu)
    print(f"\nBound schedule for epsilon = {epsilon}, alpha = {alpha}, mu = {mu}:")
    print(f"  sites needed for a nontrivial window: N >= {sched.min_sites:.0f}")
    print(f"  window opens at t_start = {sched.t_start:.0f} "
          f"(exact crossing {sched.t_start_exact:.2f})")
    print(f"{'N':>9} {'window end':>11} {'log seq bound':>14} {'linear':>10}")
    for n in (4096, 10**5, 10**6, 10**7):
        seq = sched.sequence_bound(n)
        linear = "1 (vacuous)" if seq.vacuous else f"{seq.linear:.3e}"
        print(f"{n:9d} {sched.window_end(n):11.0f} {seq.log_value:14.1f} {linear:>10}")


def empirical_window_check(n: int = 4096, histories: int = 2000):
    sched = ring_bound_schedule(0.15, 0.5, 0.3)
    window = sched.window(n)
    result = run_kac_ensemble(n, 0.3, histories, t_max=int(window[1]),
                              epsilon=0.15, seed=13, window=window)
    cap = sched.sequence_bound(n).linear
    print(f"\nEmpirical check at N = {n}: fraction with an exceedance in "
          f"[{window[0]:.0f}, {window[1]:.0f}] = {result.window_exceed_fraction:.4f} "
          f"<= {cap:.3g}")


if __name__ == "__main__":
    ensemble_against_formula()
    bound_schedule()
    empirical_window_check()

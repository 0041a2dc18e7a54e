"""Seeded Monte Carlo engine for the collapse model.

Randomness is counter-based: replica i consumes exactly one Philox
counter block (four uniform doubles), keyed by the master seed and
located by advancing the counter to block i. Results are therefore a
pure function of (scenario, N, seed), independent of how replicas are
partitioned across workers.

Operational semantics of a triggered collapse: draw the latent outcome
from the prior, then draw the observed output from the latent outcome's
collapse-family row at the probe's elapsed time. One kernel does this
for every experiment and uses each replica's uniforms the same way: u0
draws the latent, u1 the output, and in the window experiment u2 and u3
draw Alice's and Bob's input times. Earlier versions used another layout
for the window, so window counts differ from theirs for the same seed;
fixed-schedule counts do not.

Replicas run in blocks of _BLOCK = 2^13. A float column of a block then
takes 64 KB, under glibc's default 128 KB mmap threshold, so each block's
temporaries come from the heap, which reuses them block after block: the
4e6-replica schedule and uniform-window pair of the benchmark takes about
180 minor page faults. Each worker draws its run of blocks from one
generator into one buffer. Each draw compares its uniform with one
cumulative weight column at a time, so no replica holds an n-wide row,
except in the window on a `table` family: its rows interpolate every
cell and are built whole, 196 KB a block at n = 3. The column draw
equals the draw from whole cumulative rows bit for bit.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, gammaln, xlogy

from .behaviors import Distribution
from .collapse import CollapseFamily
from .errors import AlphabetMismatch, InvalidSpec
from .scenarios import Schedule, TimeDensity

_WILSON_Z = 1.959963984540054  # 95% two-sided

# the exact test falls back to chi-square beyond this many cells
# (compositions x outcomes), which its enumeration cost tracks
_EXACT_CELL_LIMIT = 1_000_000

# compositions the exact test scores at once: bounds its arrays to 2^13 x k
_EXACT_BLOCK = 1 << 13

# replicas per block: a float column of a block takes 64 KB, under glibc's
# default 128 KB mmap threshold, so a block's temporaries are reused from the
# heap instead of being mapped and faulted in anew (about 180 minor faults
# per 4e6-replica schedule and window pair)
_BLOCK = 1 << 13


@dataclass(frozen=True)
class SimConfig:
    n: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise InvalidSpec("replica count must be >= 1")
        if self.workers < 1:
            raise InvalidSpec("worker count must be >= 1")


@dataclass(frozen=True)
class EmpiricalDist:
    counts: np.ndarray
    n: int

    @property
    def freqs(self) -> np.ndarray:
        return self.counts / self.n

    def wilson_interval(self):
        """Per-cell 95% Wilson intervals; returns (lo, hi) arrays."""
        p = self.freqs
        n = self.n
        z2 = _WILSON_Z**2
        denom = 1.0 + z2 / n
        center = (p + z2 / (2 * n)) / denom
        half = _WILSON_Z * np.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
        return center - half, center + half

    def wilson_halfwidth(self) -> np.ndarray:
        lo, hi = self.wilson_interval()
        return 0.5 * (hi - lo)


def replica_uniforms(seed: int, lo: int, hi: int):
    """Uniform doubles for replicas [lo, hi), _BLOCK replicas at a time.

    Yields views of shape (m, 4) of one buffer, which each block
    overwrites: copy a block to keep it. One generator, advanced once to
    replica lo, draws every block. One Philox counter block per replica,
    so partition-invariant by construction.
    """
    gen = np.random.Generator(np.random.Philox(key=seed).advance(lo))
    buf = np.empty((min(_BLOCK, hi - lo), 4))
    return (gen.random(out=buf[:min(_BLOCK, hi - start)])
            for start in range(lo, hi, _BLOCK))


def default_workers() -> int:
    """Worker count from COLLAPSE_BOX_THREADS, clamped to [1, os.cpu_count()]."""
    env = os.environ.get("COLLAPSE_BOX_THREADS") or "1"
    try:
        return min(max(1, int(env)), os.cpu_count() or 1)
    except ValueError:
        raise InvalidSpec(f"COLLAPSE_BOX_THREADS must be an integer, got {env!r}") from None


def _simulate(p0: Distribution, cfg: SimConfig, columns) -> EmpiricalDist:
    """The sampling kernel behind every simulator.

    Each worker takes one contiguous run of replicas and draws it block by
    block from one stream of uniforms.
    """
    n = p0.size
    cum_p0 = np.cumsum(p0.weights)

    def run(lo, hi):
        counts = np.zeros(n, dtype=np.int64)
        for u in replica_uniforms(cfg.seed, lo, hi):
            counts += np.bincount(_draw(u, cum_p0, columns), minlength=n)
        return counts

    blocks = -(-cfg.n // _BLOCK)
    workers = min(cfg.workers, blocks)
    if workers == 1:
        return EmpiricalDist(run(0, cfg.n), cfg.n)
    edges = [min(cfg.n, _BLOCK * (blocks * k // workers)) for k in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return EmpiricalDist(sum(pool.map(run, edges[:-1], edges[1:])), cfg.n)


def _draw(u: np.ndarray, cum_p0: np.ndarray, columns) -> np.ndarray:
    """The output of each replica of a block of uniforms.

    Uniform 0 draws the latent from p0 and uniform 1 the output. Each draw
    counts the cumulative weights at or below the uniform, capped at the
    last index: for nondecreasing weights, the first index whose weight
    exceeds it. `columns(latent, u)` yields the replicas' cumulative output
    weights one column at a time.
    """
    n = cum_p0.size
    latent = _count(np.ascontiguousarray(u[:, 0]), cum_p0, n)
    return _count(np.ascontiguousarray(u[:, 1]), columns(latent, u), n)


def _count(x: np.ndarray, columns, n: int) -> np.ndarray:
    """How many of the columns each element of x is at or above, capped at n - 1."""
    k = np.zeros(x.size, dtype=np.min_scalar_type(n))
    for column in columns:
        k += x >= column
    return np.minimum(k, n - 1)


def simulate_single(f: CollapseFamily, probe_elapsed: float,
                    cfg: SimConfig) -> EmpiricalDist:
    """Single box: trigger at 0, probe at `probe_elapsed`."""
    cum = np.cumsum(f.profile(float(probe_elapsed)), axis=1).T
    return _simulate(f.p0, cfg, lambda latent, u: (c.take(latent) for c in cum))


def simulate_twobox(f: CollapseFamily, sched: Schedule,
                    cfg: SimConfig) -> EmpiricalDist:
    """Fixed-schedule correlated pair; aggregates Bob's outputs.

    With x = 0 Alice's input triggers nothing. Bob's own probe collapses
    the pair and he reads the latent: elapsed time inf, where every row
    is a delta.
    """
    elapsed = sched.t_b - sched.t_a if sched.x == 1 else math.inf
    return simulate_single(f, elapsed, cfg)


def simulate_window(f: CollapseFamily, g: TimeDensity,
                    cfg: SimConfig) -> EmpiricalDist:
    """Randomized-window experiment with Alice choosing the triggering input.

    Uniforms 2 and 3 draw the input times t_A and t_B independently from
    the window density. If Alice acts first her input fixes the latent and
    Bob reads its family row at t_B - t_A; if Bob acts first he triggers
    and reads the latent itself (elapsed time inf).
    """
    p0 = f.p0.weights

    def columns(latent, u):
        t_a = g.sample(u[:, 2])
        t_b = g.sample(u[:, 3])
        elapsed = np.where(t_b >= t_a, t_b - t_a, math.inf)
        if f.kind == "table":
            yield from np.cumsum(f.rows(latent, elapsed), axis=1).T
            return
        # the float operations of `rows` and `cumsum`, one column at a time,
        # so that the draw is that of the cumulative rows bit for bit; building
        # the rows instead takes twice as long at 3 and at 8 outcomes
        w = f.weights(latent, elapsed)
        keep = 1.0 - w
        acc = 0.0
        for j, p in enumerate(p0):
            acc = acc + (keep * p + (latent == j) * w)
            yield acc

    return _simulate(f.p0, cfg, columns)


@dataclass(frozen=True)
class GofReport:
    statistic: float | None
    pvalue: float
    reject: bool
    method: str  # "chi2" or "exact"


def check_level(alpha: float) -> None:
    """A significance level outside (0, 1), NaN included, is an InvalidSpec."""
    if not 0 < alpha < 1:
        raise InvalidSpec(f"significance level must lie in (0, 1), got {alpha!r}")


def gof_test(e: EmpiricalDist, p: Distribution, alpha: float = 0.01) -> GofReport:
    """Goodness of fit of empirical counts against a reference distribution.

    Pearson chi-square when all expected counts are >= 5; otherwise an
    exact multinomial test (sum of outcome probabilities no larger than
    the observed one), falling back to chi-square if enumeration would be
    too large. A one-outcome fit is perfect: p = 1 on either path.
    The level must satisfy 0 < alpha < 1.
    """
    check_level(alpha)
    if e.counts.size != p.size:
        raise AlphabetMismatch(
            f"alphabet sizes differ: {e.counts.size} vs {p.size}")
    expected = e.n * p.weights
    if (np.all(expected >= 5)
            or p.size * math.comb(e.n + p.size - 1, p.size - 1) > _EXACT_CELL_LIMIT):
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(expected > 0,
                             (e.counts - expected) ** 2 / expected, 0.0)
        # cells with zero expectation but observed counts are an automatic reject
        if np.any((expected == 0) & (e.counts > 0)):
            return GofReport(math.inf, 0.0, True, "chi2")
        stat = float(terms.sum())
        # scipy.stats.chi2.sf(stat, df); one outcome (df = 0, where scipy
        # gives NaN) always fits
        pval = float(chdtrc(p.size - 1, stat)) if p.size > 1 else 1.0
        return GofReport(stat, pval, pval < alpha, "chi2")
    return _exact_multinomial(e, p, alpha)


def _exact_multinomial(e: EmpiricalDist, p: Distribution, alpha: float) -> GofReport:
    n, k = e.n, p.size
    obs_p = float(_multinomial_pmf(e.counts, n, p.weights))
    pval = 0.0
    for c in _compositions(n, k):
        q = _multinomial_pmf(c, n, p.weights)
        # summed one term at a time in composition order, so that the
        # p-value does not depend on the block size
        pval = float(np.cumsum(np.append(pval, q[q <= obs_p + 1e-15]))[-1])
    pval = min(pval, 1.0) if k > 1 else 1.0
    return GofReport(None, pval, pval < alpha, "exact")


def _multinomial_pmf(x, n, p):
    """Multinomial pmf of the counts on x's last axis, by scipy.stats' formula."""
    return np.exp(gammaln(n + 1) + np.sum(xlogy(x, p) - gammaln(x + 1), axis=-1))


def _compositions(n, k):
    """Compositions of n into k parts in lexicographic order, _EXACT_BLOCK
    rows at a time, from their nondecreasing partial sums."""
    sums = itertools.combinations_with_replacement(range(n + 1), k - 1)
    while rows := list(itertools.islice(sums, _EXACT_BLOCK)):
        s = np.array(rows, dtype=np.int64).reshape(len(rows), k - 1)
        yield np.diff(s, axis=1, prepend=0, append=n)


def empirical_rows(e: EmpiricalDist):
    """CSV-ready rows: (outcome, count, freq, ci_lo, ci_hi)."""
    lo, hi = e.wilson_interval()
    f = e.freqs
    return [(i, int(e.counts[i]), float(f[i]), float(lo[i]), float(hi[i]))
            for i in range(e.counts.size)]

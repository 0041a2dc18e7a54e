"""Seeded Monte Carlo engine for the collapse model.

Operational semantics of a triggered collapse: draw the latent outcome
from the prior, then draw the observed output from the latent outcome's
collapse-family row at the probe's elapsed time. Only the latent counts
matter, so each grid point p draws them at once: its PCG64DXSM stream,
seeded by SeedSequence(seed, spawn_key=(p,)), first draws
L ~ Multinomial(n, P0). At a fixed elapsed time every replica of latent
a then reads the same row, and the same stream draws the k x k joint
counts Multinomial(L_a, f_a(s)), whose column sums are Bob's counts:
two multinomial calls per point, whatever n (conditional multinomial
sampling; Devroye, Non-Uniform Random Variate Generation, 1986).

The window's elapsed times differ per replica. Its replicas are numbered
in latent order, and replica j takes uniforms [3j, 3j + 3) of point 0's
second stream, SeedSequence(seed, spawn_key=(0, 1)): t_A, t_B and the
output uniform, reached with `advance(3j)`. Results are therefore a pure
function of (scenario, N, seed), independent of the block size and of
how replicas are partitioned across workers. SFC64 draws about a tenth
faster but has no `advance`, so a worker could not jump to its first
replica without drawing every uniform before it. Philox can jump, but
draws a uniform at about 2.7 times PCG64DXSM's cost.

The window runs its replicas in blocks of _BLOCK = 2^13. A float column
of a block then takes 64 KB, under glibc's default 128 KB mmap
threshold, so each block's temporaries come from the heap; how many
pages a run faults in depends on the heap's history (see _BLOCK). Each
worker draws its run of blocks from one generator into one buffer, and
cuts each block at the latent boundaries. A piece of latent a compares its output
uniforms with the cumulative columns of row a (`CollapseFamily.columns`
at a scalar latent), all but the last, and counts with np.count_nonzero
those at or above each. Both draws follow one law, that of `_cell_probs`.
The goodness-of-fit test loads no scipy: the chi-square test takes its
tail from a closed form over `math`, and the exact multinomial test its
log-factorials from a table equal to scipy.special.gammaln bit for bit.
The thread pool loads at the first multi-worker run, not at import.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

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

# ln of the largest double: cephes' igamc, behind scipy's chdtrc, returns a
# chi-square tail of 0 where its factor y^a e^-y / Gamma(a) is below e^-_MAXLOG
_MAXLOG = 709.782712893384

# cephes lgam, which scipy.special.gammaln runs: ln sqrt(2 pi) and the
# coefficients of Stirling's series in 1/x^2, below x = 1000 and from it on
_LS2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
             7.93650340457716943945e-4, -2.77777777730099687205e-3,
             8.33333333333331927722e-2)
_STIRLING_LARGE = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3,
                   0.0833333333333333333333)

# window replicas per block: a float column of a block takes 64 KB, under glibc's
# default 128 KB mmap threshold, so a block's temporaries come from the heap.
# Past the trim threshold, twice the largest mapped block freed (the 192 KB
# uniform buffer), glibc hands them back and faults them in for every block;
# whether they pass it depends on the process's heap history (see CHANGES.md)
_BLOCK = 1 << 13


@dataclass(frozen=True)
class SimConfig:
    n: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise InvalidSpec("replica count must be >= 1")
        if self.n >= 2**63:  # numpy's multinomial counts are int64
            raise InvalidSpec(f"replica count must be < 2**63, got {self.n}")
        if self.workers < 1:
            raise InvalidSpec("worker count must be >= 1")
        if not 0 <= self.seed < 2**128:
            raise InvalidSpec(f"seed must lie in [0, 2**128), got {self.seed}")


@dataclass(frozen=True)
class EmpiricalDist:
    counts: np.ndarray
    n: int

    def __post_init__(self):
        c = np.asarray(self.counts)
        if not (c.ndim == 1 and self.n >= 1 and np.all((c >= 0) & (c == np.floor(c)))
                and c.sum() == self.n):
            raise InvalidSpec(f"counts must be integers in [0, {self.n}] that sum to "
                              f"n = {self.n} >= 1, got {c.tolist()}")

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
    """The window's uniforms for replicas [lo, hi), _BLOCK replicas at a time.

    Yields views of shape (m, 3) of one buffer, which each block
    overwrites: copy a block to keep it. Replica j takes uniforms
    [3j, 3j + 3) of point 0's second stream, SeedSequence(seed,
    spawn_key=(0, 1)): t_A, t_B and the output uniform. One generator,
    advanced once to replica lo, draws every block, so any split of
    [lo, hi) yields the same uniforms.
    """
    gen = _stream(seed, 0, 1)
    gen.bit_generator.advance(3 * lo)
    buf = np.empty((min(_BLOCK, hi - lo), 3))
    return (gen.random(out=buf[:min(_BLOCK, hi - start)])
            for start in range(lo, hi, _BLOCK))


def _stream(seed: int, *spawn_key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=spawn_key)))


def _cell_probs(weights: np.ndarray) -> np.ndarray:
    """Cell probabilities on the last axis of `weights` that
    `Generator.multinomial` accepts: the differences of the cumulative sums
    of their positive parts, capped at 1, with the last sum set to 1.

    For nonnegative weights this is the law of the inverse-CDF draw that
    takes the first index whose cumulative weight exceeds a uniform, which
    the window draws. `make_distribution` admits a sum of 1 + 1e-9, and a
    validated table row entries down to -1e-9. numpy refuses both, and the
    cap and the positive parts move no more probability than that.
    """
    cum = np.minimum(np.cumsum(np.maximum(weights, 0.0), axis=-1), 1.0)
    cum[..., -1] = 1.0
    return np.diff(cum, axis=-1, prepend=0.0)


def _latent_counts(p0: Distribution, cfg: SimConfig, point: int):
    """Grid point `point`'s generator, and the latent counts of its n
    replicas, Multinomial(n, P0), which are that generator's first draw."""
    gen = _stream(cfg.seed, point)
    return gen, gen.multinomial(cfg.n, _cell_probs(p0.weights))


def simulate_single(f: CollapseFamily, probe_elapsed, cfg: SimConfig):
    """Single box: trigger at 0, probe at `probe_elapsed`. For a 1-D array of
    m times, a list of m EmpiricalDists, time i drawn at point i.

    At one elapsed time every replica of latent a draws from the same row
    f_a(s), so point i's generator draws the latent counts L and then the
    k x k joint counts Multinomial(L_a, f_a(s)) of each latent's row;
    Bob's counts are its column sums. A point costs two multinomial calls
    whatever n.
    """
    probs = _cell_probs(f.profile(probe_elapsed))
    runs = []
    for i, p in enumerate(probs.reshape(-1, f.size, f.size)):
        gen, latent = _latent_counts(f.p0, cfg, i)
        runs.append(EmpiricalDist(gen.multinomial(latent, p).sum(axis=0), cfg.n))
    return runs[0] if probs.ndim == 2 else runs


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

    Point 0's generator draws the latent counts, and the replicas are
    numbered in latent order. Replica j's uniforms (`replica_uniforms`)
    draw the input times t_A and t_B independently from the window
    density, then its output. If Alice acts first her input fixes the
    latent and Bob reads its family row at t_B - t_A; if Bob acts first
    he triggers and reads the latent itself (elapsed time inf). Each
    worker takes one contiguous run of blocks (`_window_block`).
    """
    _, latent = _latent_counts(f.p0, cfg, 0)
    bounds = np.concatenate([[0], np.cumsum(latent)])

    def run(lo, hi):
        above = np.zeros(f.size - 1, dtype=np.int64)
        for start, u in zip(range(lo, hi, _BLOCK), replica_uniforms(cfg.seed, lo, hi)):
            above += _window_block(f, g, u, np.clip(bounds - start, 0, len(u)))
        return above

    blocks = -(-cfg.n // _BLOCK)
    workers = min(cfg.workers, blocks)
    if workers == 1:
        above = run(0, cfg.n)
    else:
        from concurrent.futures import ThreadPoolExecutor  # deferred: adds 12 modules to each import
        edges = [min(cfg.n, _BLOCK * (blocks * w // workers)) for w in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            above = sum(pool.map(run, edges[:-1], edges[1:]))
    # outcome b holds the replicas at or above cumulative column b - 1 but not b
    return EmpiricalDist(-np.diff(np.concatenate([[cfg.n], above, [0]])), cfg.n)


def _window_block(f: CollapseFamily, g: TimeDensity, u: np.ndarray, cuts) -> np.ndarray:
    """How many replicas of one window block have an output uniform at or
    above each of the first k - 1 cumulative columns of their latent's row;
    replicas cuts[a]:cuts[a + 1] hold latent a. Its temporaries die with
    it, before the next block is drawn: kept across blocks, they raised the
    peak RSS of a 20,000-replica run."""
    t_a, t_b = g.sample(u[:, 0]), g.sample(u[:, 1])
    elapsed = np.where(t_b >= t_a, t_b - t_a, math.inf)
    del t_a, t_b  # fewer live temporaries pass the trim threshold less often (_BLOCK)
    out = np.ascontiguousarray(u[:, 2])
    above = np.zeros(f.size - 1, dtype=np.int64)
    for a in np.flatnonzero(cuts[1:] > cuts[:-1]):
        piece = slice(cuts[a], cuts[a + 1])
        columns = f.columns(a, elapsed[piece])
        if f.kind == "table":  # a validated table may hold entries down to -1e-9
            columns = (np.maximum(c, 0.0) for c in columns)
        for i, cum in enumerate(itertools.accumulate(itertools.islice(columns, f.size - 1))):
            above[i] += np.count_nonzero(out[piece] >= cum)
    return above


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
    The level must satisfy 0 < alpha < 1; `EmpiricalDist` has checked the
    counts.
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
        # one outcome (df = 0, where scipy.stats.chi2.sf gives NaN) always fits
        pval = _chi2_sf(p.size - 1, stat) if p.size > 1 else 1.0
        return GofReport(stat, pval, pval < alpha, "chi2")
    return _exact_multinomial(e.counts, p, alpha)


def _chi2_sf(df: int, x: float) -> float:
    """Chi-square upper tail P(X >= x) for df >= 1 degrees of freedom.

    With a = df/2 and y = x/2 this is Q(a, y), a finite sum for integer df:
    e^-y sum_{j<a} y^j/j! for even df, and erfc(sqrt y) plus
    e^-y sum_{j<a-1/2} y^(j+1/2)/Gamma(j+3/2) for odd df. The terms follow
    by recurrence while e^-y is a normal double (y <= 700), and from their
    logs beyond. As in scipy's chdtrc, the tail is 0 where y > a and
    y^a e^-y / Gamma(a) < e^-_MAXLOG, and at x = inf.
    """
    a, y = 0.5 * df, 0.5 * x
    # the exponent is NaN at y = inf, which also gives 0
    if y > a and not a * math.log(y) - y - math.lgamma(a) >= -_MAXLOG:
        return 0.0
    c = 0.5 * (df % 2)
    tail = math.erfc(math.sqrt(y)) if c else 0.0
    if y <= 700.0:
        term = math.exp(-y) * (2.0 * math.sqrt(y / math.pi) if c else 1.0)
        for j in range(df // 2):
            tail += term
            term *= y / (j + 1 + c)
    else:
        log_y = math.log(y)
        for j in range(df // 2):
            tail += math.exp((j + c) * log_y - y - math.lgamma(j + 1 + c))
    return min(tail, 1.0)  # where Q is near 1 the sum can round past it


def _exact_multinomial(counts: np.ndarray, p: Distribution, alpha: float) -> GofReport:
    """The exact test of integer counts, of any dtype, whose sum n may be 0."""
    counts = np.asarray(counts).astype(np.int64)
    n, k = int(counts.sum()), p.size
    if k == 1:  # one outcome always fits
        return GofReport(None, 1.0, False, "exact")
    log_fact = _log_factorials(n)
    log_p = np.array([math.log(w) if w > 0 else -math.inf for w in p.weights])
    obs_p = float(_multinomial_pmf(counts, log_fact, log_p))
    pval = 0.0
    for c in _compositions(n, k):
        q = _multinomial_pmf(c, log_fact, log_p)
        # summed one term at a time in composition order, so that the
        # p-value does not depend on the block size
        pval = float(np.cumsum(np.append(pval, q[q <= obs_p + 1e-15]))[-1])
    pval = min(pval, 1.0)
    return GofReport(None, pval, pval < alpha, "exact")


def _multinomial_pmf(x, log_fact, log_p):
    """Multinomial pmf of the integer counts on x's last axis, by scipy.stats'
    formula: `log_fact` is `_log_factorials(n)` and `log_p` the weights' logs."""
    with np.errstate(invalid="ignore"):  # 0 * -inf where a weight is 0
        x_log_p = np.where(x > 0, x * log_p, 0.0)
    n = log_fact.size - 1
    return np.exp(log_fact[n] + np.sum(x_log_p - log_fact[x], axis=-1))


def _log_factorials(n: int) -> np.ndarray:
    """ln k! for k = 0..n, equal to scipy.special.gammaln(k + 1) bit for bit.

    Ports cephes lgam at x = k + 1, in its order of operations. Below 13 it
    takes the log of the exact product, k!; from 13 on, Stirling's series
    (x - 0.5) ln x - x + ln sqrt(2 pi) + polevl(1/x^2)/x. ln x is the C log
    that cephes calls, `math.log`: np.log can differ from it in the last bit.
    Past x = 1e8, far beyond any n the exact test enumerates, cephes would
    drop the series.
    """
    small = [math.log(math.factorial(k)) for k in range(min(n, 11) + 1)]
    x = np.arange(13.0, n + 2.0)
    log_x = np.fromiter(map(math.log, range(13, n + 2)), float, x.size)
    q = (x - 0.5) * log_x - x + _LS2PI
    p = 1.0 / (x * x)
    q += np.where(x < 1000.0, _polevl(p, _STIRLING), _polevl(p, _STIRLING_LARGE)) / x
    return np.concatenate([small, q])


def _polevl(x, coefs):
    """cephes polevl: the polynomial with these coefficients, highest power
    first, at x by Horner's rule."""
    acc = coefs[0]
    for c in coefs[1:]:
        acc = acc * x + c
    return acc


def _compositions(n, k):
    """Compositions of n into k >= 2 parts in lexicographic order, _EXACT_BLOCK
    rows at a time, from their nondecreasing partial sums."""
    sums = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(n + 1), k - 1))
    while (s := np.fromiter(itertools.islice(sums, _EXACT_BLOCK * (k - 1)), np.int64)).size:
        yield np.diff(s.reshape(-1, k - 1), axis=1, prepend=0, append=n)


def empirical_rows(e: EmpiricalDist):
    """CSV-ready rows: (outcome, count, freq, ci_lo, ci_hi)."""
    lo, hi = e.wilson_interval()
    f = e.freqs
    return [(i, int(e.counts[i]), float(f[i]), float(lo[i]), float(hi[i]))
            for i in range(e.counts.size)]

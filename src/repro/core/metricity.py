"""Metricity parameters of decay spaces (Definition 2.2 and Sec. 4.2).

The *metricity* ``zeta(D)`` of a decay space ``D = (V, f)`` is the smallest
exponent such that for every triple ``x, y, z``::

    f(x, y)^(1/zeta) <= f(x, z)^(1/zeta) + f(z, y)^(1/zeta)

For geometric path loss ``f = d^alpha`` over a metric ``d``, the metricity
is exactly ``alpha``.  The satisfying set of exponents is an interval
``[zeta(D), inf)`` because the map ``t -> (a^t + b^t)^(1/t)`` (the l_t norm
of the two detour decays) is non-increasing in ``t = 1/zeta``.

:func:`metricity` exploits this interval structure per *triple* rather than
globally: writing ``a = ln(f_xz / f_xy)`` and ``b = ln(f_zy / f_xy)``, a
triple constrains ``zeta`` only when both log-ratios are negative, and its
minimal exponent is the unique root of ``exp(a/zeta) + exp(b/zeta) = 1``.
The global metricity is the maximum root over all constraining triples.
One blocked pass per middle node screens triples with the *exact*
predicate at the running maximum ``best`` — which is simply the triangle
inequality in the induced quasi-distance ``g = f^(1/best)``, so the scan
is one outer-add and one compare per block — and only the violators (none,
once ``best`` is right) reach the vectorized Newton solve, which starts
from the AM-GM feasible point ``zeta0 = -(a + b) / (2 ln 2)``.

The incumbent scan is *tiered* so that it scales to thousands of nodes:
middle nodes are processed in batched blocks (``B`` z-values per
outer-add), each block is screened in float32 against a conservatively
widened incumbent target, and only the flagged triples are confirmed —
and solved — in float64.  The float32 screen can only over-flag (its
margin absorbs the coarser rounding), never miss a violator, so the
result is identical to the all-float64 scan.  Spaces whose dynamic range
per unit of incumbent exceeds what float32 (resp. float64) powers can
represent fall back to a float64 linear screen (resp. the log-domain
``logaddexp`` screen); the tier is re-chosen whenever the incumbent
improves.  Blocks are independent — any stale incumbent flags a superset
of the triples the final incumbent would — so the scan optionally runs on
a thread pool (numpy releases the GIL inside the block kernels).

The historical predicate-bisection implementation is retained as
:func:`metricity_bisection` for cross-checking; both agree to tolerance.

Section 4.2 of the paper additionally studies the *relaxed-triangle*
parameter ``varphi``: the smallest value such that
``f(x, z) <= varphi * (f(x, y) + f(y, z))`` for every triple, and its
logarithm ``phi = lg(varphi)``.

.. note::
   The displayed formula for ``varphi`` in the paper inverts the ratio
   relative to the prose definition quoted above; we implement the prose
   definition, under which the paper's own derivation yields
   ``varphi <= 2^zeta``, i.e. ``phi <= zeta`` (the paper's in-line claim
   "zeta <= phi" has the inequality reversed — its proof derives
   ``f_uv <= 2^zeta (f_uw + f_wv)``).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.decay import DecaySpace
from repro.errors import ConvergenceError, DecaySpaceError

__all__ = [
    "satisfies_metricity",
    "metricity",
    "metricity_bisection",
    "metricity_witness",
    "zeta_of_triple",
    "varphi",
    "phi",
    "varphi_witness",
]

#: Slack applied to the vectorized triple test to absorb float rounding.
_PREDICATE_SLACK = 1e-12

_LN2 = float(np.log(2.0))

#: Relative widening of the float32 screen target.  float32 rounding of the
#: quasi-distances and their sum perturbs the compare by at most a few ulp
#: (~4e-7 relative); a 1e-6 margin guarantees every float64 violator is
#: flagged while keeping false positives to near-tie triples.
_F32_SCREEN_MARGIN = 1e-6

#: Largest ``span / best`` (log2 dynamic range per unit of incumbent) the
#: float32 screen accepts: quasi-distances live in [2^(-span/best), 1] and
#: float32 normals stop at 2^-126, so 80 leaves ample headroom before
#: underflow erodes the screen's margin.
_F32_SPAN_LIMIT = 80.0

#: Beyond this ``span / best`` even float64 powers degrade; the screen then
#: runs in the log domain via ``logaddexp`` (exact, slower).
_LOG_SPAN_LIMIT = 1000.0

#: Auto-sized middle-node blocks target this many screened entries
#: (``block_size * n**2``) per outer-add: 2^23 is ~32 MB in float32, small
#: enough that the sum buffer stays cache-resident on typical cores.
_SCREEN_BLOCK_ELEMENTS = 1 << 23

#: Below this node count the thread pool is pure overhead.
_PARALLEL_MIN_NODES = 256


def _as_matrix(space: DecaySpace | np.ndarray) -> np.ndarray:
    if isinstance(space, DecaySpace):
        return space.f
    f = np.asarray(space, dtype=float)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise DecaySpaceError(f"decay matrix must be square, got {f.shape}")
    return f


def _log_matrix(f: np.ndarray) -> np.ndarray:
    """Elementwise log of the decay matrix; the zero diagonal maps to -inf."""
    with np.errstate(divide="ignore"):
        return np.log(f)


def satisfies_metricity(
    space: DecaySpace | np.ndarray, zeta: float, slack: float = _PREDICATE_SLACK
) -> bool:
    """Whether every triple satisfies inequality (2) at exponent ``zeta``.

    The check is vectorized per middle node ``z`` (O(n) memory blocks,
    O(n^3) work).  It is performed on decay *ratios* in log space, so very
    large decays do not overflow: for the triple ``(x, y, z)`` the condition
    is rewritten as::

        exp((ln f_xz - ln f_xy) / zeta) + exp((ln f_zy - ln f_xy) / zeta) >= 1

    and exponents are clamped at zero (a non-negative exponent makes its term
    alone >= 1, trivially satisfying the triple).
    """
    f = _as_matrix(space)
    n = f.shape[0]
    if n <= 2:
        return True
    if zeta <= 0:
        raise ValueError(f"zeta must be positive, got {zeta}")
    logf = _log_matrix(f)
    eye = np.eye(n, dtype=bool)
    for z in range(n):
        # d_a[x, y] = ln f(x, z) - ln f(x, y);  d_b[x, y] = ln f(z, y) - ln f(x, y)
        # (the -inf log-diagonal produces NaNs on excluded triples only).
        with np.errstate(invalid="ignore"):
            d_a = logf[:, z][:, None] - logf
            d_b = logf[z, :][None, :] - logf
            term = np.exp(np.minimum(d_a, 0.0) / zeta) + np.exp(
                np.minimum(d_b, 0.0) / zeta
            )
        ok = term >= 1.0 - slack
        # Triples with repeated nodes are trivially satisfied.
        ok |= eye
        ok[z, :] = True
        ok[:, z] = True
        if not ok.all():
            return False
    return True


def metricity_witness(
    space: DecaySpace | np.ndarray, zeta: float, slack: float = _PREDICATE_SLACK
) -> tuple[int, int, int] | None:
    """A triple ``(x, y, z)`` violating inequality (2) at ``zeta``, if any.

    Returns ``None`` when ``zeta`` satisfies the metricity predicate.  The
    middle node of the returned witness is ``z``: the violated inequality is
    ``f(x, y)^(1/zeta) > f(x, z)^(1/zeta) + f(z, y)^(1/zeta)``.
    """
    f = _as_matrix(space)
    n = f.shape[0]
    if n <= 2:
        return None
    logf = _log_matrix(f)
    eye = np.eye(n, dtype=bool)
    for z in range(n):
        with np.errstate(invalid="ignore"):
            d_a = logf[:, z][:, None] - logf
            d_b = logf[z, :][None, :] - logf
            term = np.exp(np.minimum(d_a, 0.0) / zeta) + np.exp(
                np.minimum(d_b, 0.0) / zeta
            )
        term = np.nan_to_num(term, nan=2.0)
        bad = term < 1.0 - slack
        bad &= ~eye
        bad[z, :] = False
        bad[:, z] = False
        if bad.any():
            x, y = np.argwhere(bad)[0]
            return int(x), int(y), int(z)
    return None


def _solve_triple_zetas(
    a: np.ndarray, b: np.ndarray, tol: float, max_iterations: int
) -> np.ndarray:
    """Vectorized roots of ``exp(a/zeta) + exp(b/zeta) = 1`` for ``a, b < 0``.

    Newton iteration in ``u = 1/zeta`` on the convex, decreasing map
    ``h(u) = exp(a u) + exp(b u)``.  Started from the AM-GM feasible point
    ``u0 = -2 ln 2 / (a + b)`` (where ``h(u0) >= 1``), convexity makes the
    iterates increase monotonically towards the root while keeping
    ``h >= 1``, so every iterate — in particular the returned one —
    satisfies the metricity predicate for its triple.  Convergence is
    quadratic; the iteration cap is a safety net, not a budget.
    """
    u = -2.0 * _LN2 / (a + b)
    z = 1.0 / u
    for _ in range(max_iterations):
        ea = np.exp(a * u)
        eb = np.exp(b * u)
        hp = a * ea + b * eb  # h'(u), strictly negative on the domain
        u = u + (1.0 - (ea + eb)) / hp
        z_new = 1.0 / u
        if np.all(np.abs(z - z_new) <= tol):
            z = z_new
            break
        z = z_new
    # Float safety: if rounding left an iterate infinitesimally past the
    # root (h < 1), step u back until the predicate holds again.
    for _ in range(8):
        bad = np.exp(a * u) + np.exp(b * u) < 1.0
        if not bad.any():
            break
        u[bad] *= 1.0 - 4.0 * np.finfo(float).eps
    return 1.0 / u


def _log_noise_floor(logf: np.ndarray) -> float:
    """Absolute noise floor of log-ratio differences ``logf[i,j] - logf[k,l]``.

    Each entry of ``logf`` carries up to half an ulp of rounding, so a
    difference of two entries of magnitude ``L`` is only resolved to a few
    ``eps * L``.  A constraining log-ratio inside this floor is numerically
    indistinguishable from a tie; its per-triple root is ill-conditioned
    (sensitivity ``~ floor / |h'|`` can reach percent level on wide-range
    spaces) while the bisection oracle's predicate slack treats the triple
    as satisfied.  Dropping such triples keeps the two implementations
    convergent to the same value.
    """
    finite = logf[np.isfinite(logf)]
    lmax = float(np.abs(finite).max()) if finite.size else 0.0
    return 4.0 * float(np.finfo(float).eps) * max(1.0, lmax)


class _ScreenState:
    """Incumbent and tier-dependent screen arrays for the middle-node scan.

    The screen tests the *exact* predicate at the incumbent: a triple can
    raise the maximum only if it violates the triangle inequality in the
    quasi-distance ``g = (f / max f)^(1/best)``, i.e.
    ``g[x, z] + g[z, y] < g[x, y]``.  The tier (``"f32"``, ``"f64"`` or
    ``"log"``) is chosen from ``span / best`` — the representable dynamic
    range shrinks as the incumbent grows — and re-chosen on every
    improvement.  ``snap`` holds one immutable tuple
    ``(best, mode, screen_q, target, quasi64)`` that workers read
    atomically; a stale snapshot only widens the screen (a triple violating
    at the final incumbent violates at every smaller one), so concurrent
    improvements never lose a violator whose root exceeds the final
    incumbent by more than the solver tolerance.  Repeated-node triples
    need no
    special casing: the zero (resp. ``-inf``) diagonal makes them
    non-violating under every tier.
    """

    __slots__ = ("f", "logf", "fmax", "span", "log_noise", "snap", "_lock")

    def __init__(self, f: np.ndarray, logf: np.ndarray, best: float) -> None:
        self.f = f
        self.logf = logf
        self.fmax = float(f.max())
        with np.errstate(divide="ignore"):
            self.span = (
                float(np.log2(self.fmax) - np.log2(f[f > 0.0].min()))
                if self.fmax > 0
                else 0.0
            )
        self.log_noise = _log_noise_floor(logf)
        self._lock = threading.Lock()
        self.snap = self._build(best)

    @property
    def best(self) -> float:
        return self.snap[0]

    def _build(
        self, best: float
    ) -> tuple[float, str, np.ndarray, np.ndarray, np.ndarray | None]:
        ratio = np.inf if not np.isfinite(self.span) else self.span / best
        if ratio > _LOG_SPAN_LIMIT:
            quasi = self.logf / best
            return best, "log", quasi, quasi, None
        quasi64 = (self.f / self.fmax) ** (1.0 / best)
        if ratio > _F32_SPAN_LIMIT:
            return best, "f64", quasi64, quasi64, quasi64
        screen = quasi64.astype(np.float32)
        target = (quasi64 * (1.0 + _F32_SCREEN_MARGIN)).astype(np.float32)
        return best, "f32", screen, target, quasi64

    def improve(self, top: float) -> None:
        with self._lock:
            if top > self.snap[0]:
                self.snap = self._build(top)


class _BlockBuffers:
    """Preallocated per-worker scratch for one batched middle-node block.

    The flag buffer is a flat byte-bool array padded to a multiple of 8 so
    it can be viewed as ``uint64`` words: flagged-coordinate extraction
    scans 8 bools per compare instead of one (see :func:`_screen_block`).
    The padding tail is allocated zero and never written.
    """

    __slots__ = ("n", "block", "f32", "f64", "_flat", "flags")

    def __init__(self, n: int, block: int) -> None:
        self.n = n
        self.block = block
        self.f32: np.ndarray | None = None
        self.f64: np.ndarray | None = None
        total = block * n * n
        self._flat = np.zeros(-(-total // 8) * 8, dtype=bool)
        self.flags = self._flat[:total].reshape(block, n, n)

    def sums(self, k: int, mode: str) -> np.ndarray:
        if mode == "f32":
            if self.f32 is None:
                self.f32 = np.empty((self.block, self.n, self.n), dtype=np.float32)
            return self.f32[:k]
        if self.f64 is None:
            self.f64 = np.empty((self.block, self.n, self.n), dtype=np.float64)
        return self.f64[:k]

    def flagged_coordinates(
        self, k: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """``(b, x, y)`` coordinates of set flags, via a word-level scan.

        Only the first ``k * n * n`` flags are live; beyond them the buffer
        is zero (the final partial block leaves the tail untouched, and the
        padding is never written), so scanning the full word view is safe.
        A ``uint64`` view finds the words holding any flag ~5x faster than
        ``np.nonzero`` on the byte-bool buffer; only those words' bytes are
        then expanded.
        """
        words = self._flat.view(np.uint64)
        hits = np.flatnonzero(words)
        if hits.size == 0:
            return None
        expanded = self._flat.reshape(-1, 8)[hits]
        wi, bi = np.nonzero(expanded)
        flat_idx = hits[wi] * 8 + bi
        nn = self.n * self.n
        bj, rem = np.divmod(flat_idx, nn)
        xi, yi = np.divmod(rem, self.n)
        return bj, xi, yi


def _screen_block(
    zs: np.ndarray,
    snap: tuple[float, str, np.ndarray, np.ndarray, np.ndarray | None],
    buffers: _BlockBuffers,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Flagged ``(z, x, y)`` triple coordinates of a batch of middle nodes.

    One outer-add over the whole batch — ``cols[b, x] + rows[b, y]`` versus
    the target matrix — then a word-level gather of the flagged coordinates
    (see :meth:`_BlockBuffers.flagged_coordinates`).  In the float32 tier
    the gathered triples are re-tested strictly in float64 (an O(flagged)
    vectorized pass), which strips the margin-induced false positives —
    near-tie density scales like the square root of the margin in
    geometric spaces, so there can be thousands per block — before they
    reach the Newton solve.
    """
    best, mode, screen_q, target, quasi64 = snap
    k = len(zs)
    cols = screen_q[:, zs].T[:, :, None]
    rows = screen_q[zs, :][:, None, :]
    sums = buffers.sums(k, mode)
    if mode == "log":
        np.logaddexp(cols, rows, out=sums)
    else:
        np.add(cols, rows, out=sums)
    flags = buffers.flags[:k]
    np.less(sums, target[None, :, :], out=flags)
    if not flags.any():
        return None
    if k < buffers.block:
        buffers.flags[k:] = False  # final partial block: clear stale flags
    coords = buffers.flagged_coordinates(k)
    if coords is None:
        return None
    bj, xi, yi = coords
    z_arr = zs[bj]
    if mode == "f32":
        assert quasi64 is not None
        exact = quasi64[xi, z_arr] + quasi64[z_arr, yi] < quasi64[xi, yi]
        if not exact.any():
            return None
        z_arr, xi, yi = z_arr[exact], xi[exact], yi[exact]
    return z_arr, xi, yi


def _confirm_block(
    flagged: tuple[np.ndarray, np.ndarray, np.ndarray],
    state: _ScreenState,
    tol: float,
    max_iterations: int,
) -> None:
    """float64 confirmation: resolve flagged triples' roots, raise incumbent.

    The log-ratios ``a = ln(f_xz/f_xy)``, ``b = ln(f_zy/f_xy)`` are exact
    float64 regardless of the screening tier.  Triples with
    ``max(a, b) >= -noise`` are dropped: a non-negative log-ratio never
    constrains, and one inside the noise floor (the rounding error of the
    log difference itself) has a root that is pure noise — the bisection
    oracle's predicate slack ignores exactly these, so resolving them
    would *diverge* from it, not refine it.

    Every remaining triple is solved and only a larger root raises the
    incumbent.  No incumbent-form predicate re-test happens here: the
    screens flag (at least) every strict violator at their snapshot, so a
    triple whose root exceeds the final incumbent by more than the solver
    tolerance is flagged and solved no matter how the blocks were
    partitioned or interleaved.  Partitioning can therefore shift the
    result only within the Newton tolerance (which triples are flagged at
    a stale-vs-fresh incumbent differs exactly for roots within ~tol of
    it), never beyond.
    """
    logf = state.logf
    z_arr, xi, yi = flagged
    base = logf[xi, yi]
    aa = logf[xi, z_arr] - base
    bb = logf[z_arr, yi] - base
    keep = np.maximum(aa, bb) < -state.log_noise
    if not keep.any():
        return
    roots = _solve_triple_zetas(aa[keep], bb[keep], tol, max_iterations)
    state.improve(float(roots.max()))


def _resolve_block_size(n: int, block_size: int | None) -> int:
    if block_size is not None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        return int(block_size)
    return max(1, min(64, _SCREEN_BLOCK_ELEMENTS // (n * n)))


def _resolve_workers(n: int, workers: int | None) -> int:
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return int(workers)
    if n < _PARALLEL_MIN_NODES:
        return 1
    return min(4, os.cpu_count() or 1)


def metricity(
    space: DecaySpace | np.ndarray,
    tol: float = 1e-9,
    max_iterations: int = 200,
    *,
    block_size: int | None = None,
    workers: int | None = None,
) -> float:
    """The metricity ``zeta(D)`` of Definition 2.2, via per-triple roots.

    A tiered blocked pass over middle nodes ``z`` screens every triple
    with the exact predicate at the running maximum — the triangle
    inequality in the induced quasi-distance (see module docstring) — and
    resolves the violating triples' log-ratios ``a = ln(f_xz/f_xy)``,
    ``b = ln(f_zy/f_xy)`` exactly with :func:`_solve_triple_zetas`
    (triples with ``max(a, b) >= 0`` are satisfied at every positive
    exponent and never constrain).  The result is the maximum per-triple
    root — the same value the predicate bisection of
    :func:`metricity_bisection` brackets, but computed in one sweep
    instead of ~40.

    Middle nodes are processed ``block_size`` at a time (auto-sized to a
    ~64 MB screen buffer by default); when the dynamic range permits, the
    screen runs in float32 with a conservative margin and only flagged
    triples are confirmed in float64, which roughly halves the memory
    traffic of the dominant pass.  ``workers`` threads scan blocks
    concurrently (numpy releases the GIL in the block kernels); a stale
    incumbent only over-flags, so block size and worker count cannot move
    the result beyond the solver tolerance ``tol``.  Defaults: serial
    below 256 nodes, else ``min(4, cpu_count)``.

    Spaces in which every triple holds for arbitrarily small exponents
    (e.g. uniform decays) have an infimum of 0; this function then returns
    ``0.0`` by convention.
    """
    f = _as_matrix(space)
    n = f.shape[0]
    if n <= 2:
        return 0.0
    logf = _log_matrix(f)
    # Bootstrap: scan middle nodes until one constrains, solving all of that
    # block's constraining triples exactly from the log-ratios; earlier
    # blocks had no constraining triples and are complete.  The noise floor
    # mirrors the one applied during confirmation (see _log_noise_floor).
    noise = _log_noise_floor(logf)
    best = 0.0
    first_screened = n
    for z in range(n):
        with np.errstate(invalid="ignore"):
            d_a = logf[:, z][:, None] - logf
            d_b = logf[z, :][None, :] - logf
            nontrivial = np.maximum(d_a, d_b) < -noise
        if not nontrivial.any():
            continue
        roots = _solve_triple_zetas(
            d_a[nontrivial], d_b[nontrivial], tol, max_iterations
        )
        best = float(roots.max())
        first_screened = z + 1
        break
    if best == 0.0:
        return 0.0

    state = _ScreenState(f, logf, best)
    block = _resolve_block_size(n, block_size)
    n_workers = _resolve_workers(n, workers)
    blocks = [
        np.arange(start, min(start + block, n))
        for start in range(first_screened, n, block)
    ]

    if n_workers <= 1 or len(blocks) <= 1:
        buffers = _BlockBuffers(n, block)
        for zs in blocks:
            flagged = _screen_block(zs, state.snap, buffers)
            if flagged is not None:
                _confirm_block(flagged, state, tol, max_iterations)
    else:
        local = threading.local()

        def _scan(zs: np.ndarray) -> None:
            buffers = getattr(local, "buffers", None)
            if buffers is None:
                buffers = local.buffers = _BlockBuffers(n, block)
            flagged = _screen_block(zs, state.snap, buffers)
            if flagged is not None:
                _confirm_block(flagged, state, tol, max_iterations)

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(_scan, blocks))

    best = state.best
    return best if best > tol / 4.0 else 0.0


def metricity_bisection(
    space: DecaySpace | np.ndarray,
    tol: float = 1e-9,
    max_iterations: int = 200,
) -> float:
    """The metricity ``zeta(D)`` via global predicate bisection.

    Reference implementation kept for cross-validation of the vectorized
    kernel in :func:`metricity`; about an order of magnitude slower (one
    full O(n^3) predicate sweep per bisection step).  Returns the smallest
    ``zeta`` (within absolute tolerance ``tol``) such that every triple
    satisfies inequality (2); the returned value always *satisfies* the
    predicate (we bisect and report the feasible endpoint).
    """
    f = _as_matrix(space)
    n = f.shape[0]
    if n <= 2:
        return 0.0

    # Paper (Sec 2.2): zeta_0 = lg(max f / min f) always satisfies (2).
    off = f[~np.eye(n, dtype=bool)]
    ratio = float(off.max() / off.min())
    hi = max(1.0, float(np.log2(ratio)) if ratio > 1.0 else 0.0)
    for _ in range(max_iterations):
        if satisfies_metricity(f, hi):
            break
        hi *= 2.0
    else:  # pragma: no cover - paper guarantees the bound; defensive only
        raise ConvergenceError("could not bracket the metricity from above")

    lo = tol / 4.0
    if satisfies_metricity(f, lo):
        return 0.0

    for _ in range(max_iterations):
        if hi - lo <= tol:
            break
        mid = (lo + hi) / 2.0
        if satisfies_metricity(f, mid):
            hi = mid
        else:
            lo = mid
    return float(hi)


def zeta_of_triple(
    fxy: float, fxz: float, fzy: float, tol: float = 1e-12
) -> float:
    """Smallest exponent satisfying inequality (2) for a single triple.

    ``fxy`` is the direct decay, ``fxz`` and ``fzy`` the two detour decays.
    Returns ``0.0`` when the triple is satisfied by every positive exponent
    (which happens exactly when ``fxy <= max(fxz, fzy)``).
    """
    if min(fxy, fxz, fzy) <= 0:
        raise ValueError("triple decays must be positive")
    if fxy <= max(fxz, fzy):
        return 0.0
    a = np.array([np.log(fxz) - np.log(fxy)])
    b = np.array([np.log(fzy) - np.log(fxy)])
    return float(_solve_triple_zetas(a, b, tol, 200)[0])


def varphi(space: DecaySpace | np.ndarray) -> float:
    """The relaxed-triangle parameter of Sec. 4.2 (prose definition).

    ``varphi`` is the smallest value such that
    ``f(x, z) <= varphi * (f(x, y) + f(y, z))`` for every triple of distinct
    nodes, i.e. ``max f(x, z) / (f(x, y) + f(y, z))``.  For a metric,
    ``varphi <= 1``.
    """
    value, _ = varphi_witness(space)
    return value


def varphi_witness(
    space: DecaySpace | np.ndarray,
) -> tuple[float, tuple[int, int, int] | None]:
    """``varphi`` together with a maximising triple ``(x, y, z)``.

    The returned triple has middle node ``y``:
    ``varphi = f(x, z) / (f(x, y) + f(y, z))``.
    """
    f = _as_matrix(space)
    n = f.shape[0]
    if n <= 2:
        return 0.0, None
    best = -np.inf
    witness: tuple[int, int, int] | None = None
    eye = np.eye(n, dtype=bool)
    for y in range(n):
        denom = f[:, y][:, None] + f[y, :][None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = f / denom
        ratio[eye] = -np.inf
        ratio[y, :] = -np.inf
        ratio[:, y] = -np.inf
        idx = np.argmax(ratio)
        x, z = divmod(int(idx), n)
        if ratio[x, z] > best:
            best = float(ratio[x, z])
            witness = (x, y, z)
    return best, witness


def phi(space: DecaySpace | np.ndarray) -> float:
    """``phi = lg(varphi)``; may be negative for better-than-metric spaces."""
    v = varphi(space)
    if v <= 0:
        return float("-inf")
    return float(np.log2(v))

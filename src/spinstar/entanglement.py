"""Partial transpose, bipartite negativity, and the multipartite negativity
defined as the geometric mean over all one-spin-versus-rest cuts, of packed
states (operators.packed_positions) or dense matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import (excitations, packed_entries, packed_positions, packed_qubits, qubit_count,
                        qubit_subset, ring_mirror, ring_turns)

# Values in [NEGATIVITY_FLOOR, ZERO_SNAP] are floating-point noise around an
# exact zero and are reported as 0; anything below the floor means the input
# was not a valid state and must surface as an error, not be clamped away.
NEGATIVITY_FLOOR = -1e-9
ZERO_SNAP = 1e-12

# A reflection-split charge block drops its even/odd coupling only where that
# moves the block's trace norm by at most this (see _spectra).  The ring states of
# thermal.reduced_state stay below 2e-14 at m=8..11 (epsilon = 1.3, eta = 0.7, the
# crossing epsilon = eta = 1 and two random pairs on [0, 10]; t = 0, 0.01, 0.1, 1, 5).
REFLECTION_TOL = 1e-12

# A one-spin cut's charge blocks of at least this dimension are split by the ring reflection that
# fixes the cut spin (see _cut), from m=8 on.  Single-threaded, warm, best of 7 x 50 in two runs on a
# 2-vCPU host: one cut's gather and eigenvalues, split against whole, 0.37-0.43 against 0.40-0.41 ms
# at m=8 (70 states, a tie), 1.08-1.11 against 1.46-1.48 ms at m=9.
SYMMETRY_MIN_DIM = 60


# negativity's ring states: ((SYMMETRY_MIN_DIM, REFLECTION_TOL), {first _HEAD entries' bytes: (the rest's
# bytes, one-spin negativity)}); keyed by a head, so that a hit does not hash a whole state
_last_cut = None
_HEAD = 64


class NumericalInvariantError(RuntimeError):
    """A computed quantity broke a floor that only an invalid state can break."""


@dataclass(frozen=True)
class NegativityReport:
    """Per-cut negativities, entry k for spin k against the rest, and their geometric mean."""

    per_cut: tuple[float, ...]
    multipartite: float


def partial_transpose(rho: np.ndarray, part_a) -> np.ndarray:
    """Transpose of the part_a tensor factors of a dense 2^n x 2^n matrix rho.

    Entry <ab| out |a'b'> equals <a'b| rho |ab'> where a runs over the
    part_a bits; the result is Hermitian with the same trace.
    """
    rho = np.asarray(rho)
    n_qubits = qubit_count(rho.shape)
    part = qubit_subset(part_a, n_qubits)
    tensor = rho.reshape((2,) * (2 * n_qubits))
    perm = list(range(2 * n_qubits))
    for q in part:
        perm[q], perm[n_qubits + q] = perm[n_qubits + q], perm[q]
    return tensor.transpose(perm).reshape(rho.shape)


def _state(rho: np.ndarray) -> tuple[np.ndarray, int]:
    """(rho, n) of a packed (C(2n, n),) state, returned as is, or of a dense (2^n, 2^n) matrix, packed
    when an exact nonzero count puts every entry in its excitation blocks; ValueError for any other shape."""
    if rho.ndim == 1:
        return rho, packed_qubits(rho.shape)
    n_qubits = qubit_count(rho.shape)
    packed = rho.take(packed_entries(n_qubits))
    return (packed if np.count_nonzero(packed) == np.count_nonzero(rho) else rho), n_qubits


@lru_cache(maxsize=64, typed=True)
def _cut(n_qubits: int, min_dim: int, *part_a):
    """(part, index, diagonal, layout) of the cut part_a of a packed state (operators.packed_positions).

    Where rho conserves the excitation number, its partial transpose over part conserves the charge
    q = popcount(rest bits) - popcount(part bits) = popcount(i) - 2*popcount(i & mask), and its charge
    blocks hold each packed entry once: index gathers them all, row-major, one block after the other.
    diagonal gathers rho's diagonal in basis-index order.  layout holds, per stack of equal blocks, its
    slice of the gathered values, its (count, size, size) shape and its split.  The blocks are laid out
    one charge at a time, each filed under its (size, split), so stacks come in the order of their first
    charge and blocks in charge order.  The ring reflection j -> -j (mod n_qubits) (operators.ring_mirror)
    fixes spin 0, so it commutes with the transpose over spin 0 and keeps q; for the cut (0,) a block of at
    least min_dim states with pairs is ordered (pairs, fixed points, their partners), with split (pairs,
    fixed points), and any other block ascending, with split None.  The cut (p,) takes those rows, in that
    order, turned p times around the ring (operators.ring_turns), with the same layout: the reflection
    through spin p pairs them alike, and a state invariant under the ring rotation gathers the same
    values, bit for bit, at every one-spin cut.  Any other cut's blocks are ascending and whole.  Any
    other spelling of a cut (unsorted, repeated, numpy or bool spins) is looked up as its sorted int
    tuple and shares that entry's arrays; typed stops a float index from hitting a cached int's entry.
    """
    part = qubit_subset(part_a, n_qubits)
    if part != part_a or any(type(q) is not int for q in part_a):
        return _cut(n_qubits, min_dim, *part)
    if len(part) == n_qubits:
        raise ValueError("part_a must be a proper subset of the qubits")
    turn = part[0] if len(part) == 1 else 0  # the cut (p,) is the cut (0,) turned p times
    states, excited = np.arange(2 ** n_qubits), excitations(n_qubits)
    mask = sum(1 << (n_qubits - 1 - q) for q in part)
    charge = excited - 2 * excited[states & mask << turn] + len(part)  # q + len(part) of the cut turned back
    mirrored = ring_mirror(states, n_qubits)  # only a one-spin cut's split reads it
    turned = ring_turns(states, n_qubits)[turn]
    stacks = {}  # (size, split) -> the rows of its blocks, in charge order
    for q in range(n_qubits + 1):
        rows = np.flatnonzero(charge == q)
        pairs, fixed = rows < mirrored[rows], rows == mirrored[rows]
        split = None
        if rows.size >= min_dim and len(part) == 1 and not fixed.all():  # a block without pairs stays whole
            split = (int(np.count_nonzero(pairs)), int(np.count_nonzero(fixed)))
            rows = np.concatenate((rows[pairs], rows[fixed], mirrored[rows[pairs]]))
        stacks.setdefault((rows.size, split), []).append(turned[rows])
    # <ab| rho^T_A |a'b'> = <a'b| rho |ab'>: swap the part bits of row and column
    base, rank = (array.astype(np.int32) for array in packed_positions(n_qubits))  # C(2n, n) < 2^31
    pieces, layout, done = [], [], 0
    for (size, split), blocks in stacks.items():
        for rows in blocks:
            # entry (r, c) is base[rest_r | own_c] + rank[rest_c | own_r]: gather one column per distinct
            # own value of the block (two for a one-spin cut), then pick per entry
            values, inverse = np.unique(rows & mask, return_inverse=True)
            both = rows & ~mask | values[:, None]
            pieces.append((base.take(both).T[:, inverse] + rank.take(both)[inverse]).ravel())
        layout.append((slice(done, done + len(blocks) * size * size), (len(blocks), size, size), split))
        done += len(blocks) * size * size
    index, diagonal = np.concatenate(pieces), base + rank
    for array in (index, diagonal):
        array.setflags(write=False)
    return part, index, diagonal, tuple(layout)


@lru_cache(maxsize=16)
def _turned(n_qubits: int) -> np.ndarray:
    """Packed position of (T a, T b) for each packed entry (a, b), T the ring turn, spin j to spin j + 1
    (operators.ring_turns); int32, read-only; a ring state equals its gather through it (see _ring)."""
    excited, base, rank = excitations(n_qubits), *packed_positions(n_qubits)
    turned = ring_turns(np.arange(2 ** n_qubits), n_qubits)[1]
    index = np.concatenate([(base[rows][:, None] + rank[rows]).ravel()
                            for rows in (turned[excited == k] for k in range(n_qubits + 1))]).astype(np.int32)
    index.setflags(write=False)
    return index


def _ring(states: np.ndarray) -> np.ndarray:
    """Whether each state of a float64 stack equals its gather through _turned, bit for bit (as int64)."""
    bits = states.view(np.int64)
    return (bits == _gather(bits, _turned(packed_qubits(states.shape[-1:])))).all(axis=1)


def _gather(states, index):
    """states[:, index]; take copies several states' rows at once, 5x faster than indexing two m=8 states."""
    return states[:, index] if len(states) == 1 else states.take(index, axis=1)


def _spectra(blocks, split) -> list:
    """Eigenvalues, states first, of a (states, count, size, size) stack of charge blocks split as in _cut.

    A split block B, ordered (pairs, fixed points, partners), is diagonalized in the reflection-even
    basis (a + b)/sqrt(2), f and the odd one (a - b)/sqrt(2), from sums and differences of its
    contiguous parts, when the coupling X between them passes 2 sqrt(pairs) ||X||_F <= REFLECTION_TOL
    summed over the state's blocks.  Dropping X moves the trace norm by at most ||[[0, X], [X^H, 0]]||_1 =
    2 ||X||_1, and X has rank at most pairs.  A state that fails it gets NaN eigenvalues beside states that
    pass; else, or unsplit, each block is diagonalized whole, and a 1x1 block is its own eigenvalue.
    """
    if split is not None:
        p, f = split
        top, bottom = blocks[..., :p, :] + blocks[..., p + f:, :], blocks[..., :p, :] - blocks[..., p + f:, :]
        middle = blocks[..., p:p + f, :]
        # X's rows on the pair sums, doubled, and on the fixed points, times sqrt(2)
        pairs, fixed = top[..., :p] - top[..., p + f:], middle[..., :p] - middle[..., p + f:]
        passed = np.array([2 * math.sqrt(p) * math.sqrt(np.vdot(a, a).real / 4 + np.vdot(b, b).real / 2)
                           <= REFLECTION_TOL for a, b in zip(pairs, fixed)])  # NaN fails too
        if passed.any():
            # twice the even block, as the odd one below
            even = np.empty((*blocks.shape[:2], p + f, p + f), blocks.dtype)
            np.add(top[..., :p], top[..., p + f:], out=even[..., :p, :p])
            np.multiply(top[..., p:p + f], math.sqrt(2), out=even[..., :p, p:])
            np.multiply(middle[..., :p] + middle[..., p + f:], math.sqrt(2), out=even[..., p:, :p])
            np.multiply(middle[..., p:p + f], 2.0, out=even[..., p:, p:])
            odd = bottom[..., :p] - bottom[..., p + f:]
            return [np.where(passed[:, None, None], 0.5 * np.linalg.eigvalsh(x), np.nan) for x in (even, odd)]
    return [np.linalg.eigvalsh(blocks) if blocks.shape[-1] > 1 else blocks.real]


def _solve(states, index, diagonal, layout):
    """(raw, traces) of each state of a (states, C(2n, n)) stack at a cut (see _cut): its sum of |eigenvalues|
    of the partial transpose minus one, and sum() of its diagonal; one _spectra call per layout stack."""
    raw = np.zeros(len(states))
    for span, shape, split in layout:
        blocks = _gather(states, index[span]).reshape(len(states), *shape)
        for values in _spectra(blocks, split):
            # C order: each state's values contiguous, summed pairwise as for a stack of it alone
            raw += np.add.reduce(np.abs(values, order="C"), axis=tuple(range(1, values.ndim)))
    return (raw - 1.0).tolist(), list(map(sum, states[:, diagonal].real.tolist()))


def keep_ring_states(states: np.ndarray) -> np.ndarray:
    """states, a float64 (..., C(2n, n)) stack, after solving cut 0 of its ring states at once (_solve, _ring)
    and keeping their values for negativity in place of its last ones.  A state off the ring, not finite or
    failing negativity's checks keeps nothing, nor does a stack whose eigensolve raises LinAlgError."""
    global _last_cut
    flat = states.reshape(-1, states.shape[-1])
    ring = _ring(flat) & np.isfinite(flat).all(axis=1)
    flat = flat if ring.all() else flat[ring]
    try:
        raw, traces = _solve(flat, *_cut(packed_qubits(flat.shape[-1:]), SYMMETRY_MIN_DIM, 0)[1:])
    except np.linalg.LinAlgError:
        return states
    _last_cut = ((SYMMETRY_MIN_DIM, REFLECTION_TOL), {
        state[:_HEAD].tobytes(): (state[_HEAD:].tobytes(), 0.0 if value <= ZERO_SNAP else value)
        for state, value, trace in zip(flat, raw, traces)
        if value >= NEGATIVITY_FLOOR and abs(trace - 1.0) <= -NEGATIVITY_FLOOR})
    return states


def negativity(rho: np.ndarray, part_a) -> float:
    """Sum of |eigenvalues| of the partial transpose, minus one.

    rho is a packed state (operators.packed_positions) or a dense matrix.  Zero for states that stay
    positive under partial transposition.  Noise around zero is snapped to exactly 0.  A value below
    -1e-9, or a trace off 1 by more than 1e-9 (or NaN), signals an invalid input state and raises
    NumericalInvariantError.  A dense matrix is packed when an exact count puts every nonzero entry in
    its excitation blocks; else its whole transpose is diagonalized.  A packed state is solved as a
    stack of one (see _solve).  Every one-spin cut of a float64 packed ring state (see _ring) gathers
    the same bits, so its value is kept, for that state alone after such a cut, for each ring state of
    a stack after keep_ring_states: a later call with (k,), k an int, on a state of the same bytes
    returns it without a gather, an index or a trace sum.  Any other call is solved in full.
    """
    global _last_cut
    rho, n_qubits = _state(np.asarray(rho))
    last = _last_cut  # read once; a call on another thread replaces the whole entry
    if (last is not None and type(part_a) is tuple and len(part_a) == 1 and type(part_a[0]) is int
            and 0 <= part_a[0] < n_qubits and rho.dtype == np.float64 and rho.ndim == 1
            and last[0] == (SYMMETRY_MIN_DIM, REFLECTION_TOL)
            and (kept := last[1].get(rho[:_HEAD].tobytes())) and rho[_HEAD:].tobytes() == kept[0]):
        return kept[1]
    part, index, diagonal, layout = _cut(n_qubits, SYMMETRY_MIN_DIM, *part_a)
    try:
        if rho.ndim == 2:  # a dense matrix with an entry off its excitation blocks
            raw = float(np.abs(np.linalg.eigvalsh(partial_transpose(rho, part))).sum() - 1.0)
            trace = sum(rho.diagonal().real.tolist())  # the eigenvalues' sum, in basis-index order
        else:
            [raw], [trace] = _solve(rho[None], index, diagonal, layout)
    except np.linalg.LinAlgError as exc:  # eigvalsh may not converge on a NaN or inf entry
        raise NumericalInvariantError(f"partial transpose: {exc}; input is not a valid state") from exc
    if not raw >= NEGATIVITY_FLOOR:  # NaN fails too
        raise NumericalInvariantError(
            f"negativity {raw:.3e} fails the {NEGATIVITY_FLOOR} floor; input is not a valid state")
    if not abs(trace - 1.0) <= -NEGATIVITY_FLOOR:  # NaN fails too; the floor misses an excess
        raise NumericalInvariantError(f"trace {trace:.12g} is not 1; input is not a valid state")
    value = 0.0 if raw <= ZERO_SNAP else raw
    if len(part) == 1 and rho.ndim == 1 and rho.dtype == np.float64 and _ring(rho[None])[0]:
        _last_cut = ((SYMMETRY_MIN_DIM, REFLECTION_TOL),
                     {rho[:_HEAD].tobytes(): (rho[_HEAD:].tobytes(), value)})
    return value


def multipartite_negativity(rho: np.ndarray) -> NegativityReport:
    """Geometric mean of the m one-spin-versus-rest negativities; rho as for negativity, its shape fixes m.

    A one-spin state has no cut and raises ValueError.  Exactly zero whenever any single cut is zero, so
    separable and bi-separable states report no multipartite entanglement; exactly their common value
    when all cuts are equal.
    """
    rho, m = _state(np.asarray(rho))  # a dense state is packed once, for all m cuts
    if m < 2:
        raise ValueError("a one-spin state has no one-spin-versus-rest cut; m >= 2 spins are needed")
    values = tuple(negativity(rho, (k,)) for k in range(m))
    low = min(values)
    if low == 0.0 or low == max(values):
        mean = low
    else:
        # geometric mean through logs: robust to underflow of the raw product
        mean = math.exp(sum(map(math.log, values)) / len(values))
    return NegativityReport(per_cut=values, multipartite=mean)

"""Packed, array-resident signatures for whole populations.

A fleet campaign produces one signature *per die*; materializing each as
a :class:`repro.core.signature.Signature` (a Python list of
:class:`SignatureEntry` dataclasses) costs hundreds of object
constructions per die and dominates the back half of the screening
pipeline.  A :class:`SignatureBatch` stores the same information for all
N dies at once in CSR (compressed sparse row) layout:

* ``codes``        -- flat ``int64`` zone codes of every run, all rows
  concatenated in die order;
* ``durations``    -- flat ``float64`` dwell times aligned with
  ``codes``;
* ``row_offsets``  -- ``(N + 1,)`` offsets: die ``i`` owns the slice
  ``[row_offsets[i], row_offsets[i + 1])``;
* ``periods``      -- ``(N,)`` per-die signature periods (a shared
  scalar for grid captures; per-row after counter saturation in the
  asynchronous capture model).

Construction from a stacked ``(N, samples)`` zone-code array is a
single vectorized run-length pass (:meth:`from_code_stack`), and
:meth:`ndf_to` scores every row against a shared golden signature in
one flat kernel -- no per-die ``np.unique`` breakpoint merges.
Conversion to per-die :class:`Signature` objects happens only at the
diagnosis edges (:meth:`to_signatures`, :meth:`row`).

The batch is also the transport format of the fault-diagnosis
subsystem (:mod:`repro.diagnosis`): a campaign run with
``keep_signatures=True`` retains its packed batch, the failing rows
are carved out with :meth:`select`, and the dictionary matcher scores
them fault by fault through :meth:`ndf_to` -- the whole diagnosis loop
stays array-resident until the per-die report edge.

Bit-compatibility
-----------------
The batch replicates the scalar path's floating-point expression order
everywhere it matters, so for the same code stack:

* row durations equal ``Signature.from_samples``' entry durations bit
  for bit (same ``next-head-time - head-time`` subtractions);
* row start times equal ``Signature._starts`` bit for bit (sequential
  ``np.cumsum`` over each row's durations);
* :meth:`ndf_to` equals :func:`repro.core.ndf.ndf` against the same
  golden **bit for bit**: the merged partition, interval widths,
  Hamming terms and even the final per-row summation (``np.sum`` over a
  contiguous slice of the same length) reproduce the scalar metric's
  exact operations.

The campaign equivalence tests assert all three; the full contract is
written out in ``docs/paper_map.md``.  K-channel stacks of this batch
live in :mod:`repro.core.multi_signature_batch`.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro.core.signature import Signature, SignatureEntry


class SignatureBatch:
    """N run-length signatures packed into flat CSR arrays.

    Parameters
    ----------
    codes:
        Flat zone codes of all runs, row-concatenated.
    durations:
        Flat dwell times aligned with ``codes`` (all positive).
    row_offsets:
        ``(N + 1,)`` monotone offsets into the flat arrays.
    periods:
        Scalar period shared by every row, or an ``(N,)`` array of
        per-row periods.
    """

    def __init__(self, codes: np.ndarray, durations: np.ndarray,
                 row_offsets: np.ndarray,
                 periods: Union[float, np.ndarray]) -> None:
        self.codes = np.asarray(codes, dtype=np.int64)
        self.durations = np.asarray(durations, dtype=float)
        self.row_offsets = np.asarray(row_offsets, dtype=np.int64)
        n = self.row_offsets.size - 1
        if n < 0:
            raise ValueError("row_offsets needs at least one element")
        if np.ndim(periods) == 0:
            self.periods = np.full(n, float(periods))
        else:
            self.periods = np.asarray(periods, dtype=float)
        if self.periods.shape != (n,):
            raise ValueError("periods must align with the row count")
        if self.codes.shape != self.durations.shape:
            raise ValueError("codes and durations must align")
        if (self.row_offsets[0] != 0
                or self.row_offsets[-1] != self.codes.size
                or np.any(np.diff(self.row_offsets) < 1)):
            raise ValueError("row_offsets must be monotone, start at 0, "
                             "end at the run count, and give every row "
                             "at least one run")
        self._starts: np.ndarray = None  # lazy; see start_times()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_code_stack(cls, times: np.ndarray, codes: np.ndarray,
                        period: float) -> "SignatureBatch":
        """One-pass run-length extraction of a whole ``(N, T)`` stack.

        ``times[j]`` is the start of the sampling interval carrying
        ``codes[i, j]``; the final interval of every row extends to
        ``period``.  Row ``i`` of the result equals
        ``Signature.from_samples(times, codes[i], period)`` entry for
        entry (codes and durations bit-identical), but the extraction
        runs as one boolean run-head pass over the full stack instead
        of N Python loops building ``SignatureEntry`` objects.
        """
        times = np.asarray(times, dtype=float)
        stack = np.atleast_2d(np.asarray(codes))
        n, t = stack.shape
        if times.ndim != 1 or times.size != t or t == 0:
            raise ValueError("times must be 1-D and aligned with the "
                             "code stack's sample axis")
        if times[0] != 0.0:
            raise ValueError("sampled signatures must start at t = 0")
        if times[-1] >= period:
            raise ValueError("sample times must stay below the period")
        if t > 1 and np.any(np.diff(times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        # Run heads: the first sample of every row plus every sample
        # whose code differs from its predecessor.  np.nonzero on the
        # (N, T) mask is row-major, so the flat outputs are already in
        # CSR order.
        heads = np.ones(stack.shape, dtype=bool)
        if t > 1:
            heads[:, 1:] = stack[:, 1:] != stack[:, :-1]
        rows, cols = np.nonzero(heads)
        counts = np.count_nonzero(heads, axis=1)
        row_offsets = np.concatenate([[0], np.cumsum(counts)])
        run_codes = stack[rows, cols].astype(np.int64)
        head_times = times[cols]
        # Each run lasts until the next head in its row; the last run of
        # a row until the period.  Same subtractions as the scalar
        # ``np.diff([head times, period])``.
        bounds_next = np.empty(head_times.size)
        if head_times.size > 1:
            bounds_next[:-1] = head_times[1:]
        bounds_next[row_offsets[1:] - 1] = period
        durations = bounds_next - head_times
        return cls(run_codes, durations, row_offsets, float(period))

    @classmethod
    def from_signatures(cls, signatures: Sequence[Signature]
                        ) -> "SignatureBatch":
        """Pack per-die :class:`Signature` objects (diagnosis edge)."""
        if not signatures:
            return cls(np.empty(0, np.int64), np.empty(0), np.zeros(1),
                       np.empty(0))
        codes = np.concatenate([s._codes for s in signatures])
        durations = np.concatenate([s.durations() for s in signatures])
        counts = [len(s) for s in signatures]
        row_offsets = np.concatenate([[0], np.cumsum(counts)])
        periods = np.asarray([s.period for s in signatures])
        return cls(codes, durations, row_offsets, periods)

    @classmethod
    def empty(cls) -> "SignatureBatch":
        """A batch with zero rows (the empty-population edge case)."""
        return cls(np.empty(0, np.int64), np.empty(0),
                   np.zeros(1, np.int64), np.empty(0))

    @classmethod
    def concatenate(cls, batches: Sequence["SignatureBatch"]
                    ) -> "SignatureBatch":
        """Stack batches row-wise (streamed/chunked campaign merge).

        Row ``i`` of the result is bit-identical to the corresponding
        row of its source batch -- only the CSR offsets shift.
        """
        batches = [b for b in batches if len(b)]
        if not batches:
            return cls.empty()
        codes = np.concatenate([b.codes for b in batches])
        durations = np.concatenate([b.durations for b in batches])
        periods = np.concatenate([b.periods for b in batches])
        offsets = [np.zeros(1, np.int64)]
        shift = 0
        for b in batches:
            offsets.append(b.row_offsets[1:] + shift)
            shift += b.codes.size
        return cls(codes, durations, np.concatenate(offsets), periods)

    def select(self, indices) -> "SignatureBatch":
        """New batch holding the given rows, in the given order.

        This is the diagnosis carve-out: a campaign keeps one packed
        batch for the whole fleet, and only the failing rows travel on
        to the dictionary matcher.  Rows are gathered as flat slices,
        so the selected rows stay bit-identical to their sources.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 1:
            raise ValueError("need a 1-D row index array")
        if indices.size == 0:
            return SignatureBatch.empty()
        counts = self.runs_per_row[indices]
        new_offsets = np.concatenate([[0], np.cumsum(counts)])
        starts = self.row_offsets[indices]
        local = (np.arange(new_offsets[-1])
                 - np.repeat(new_offsets[:-1], counts))
        take = np.repeat(starts, counts) + local
        return SignatureBatch(self.codes[take], self.durations[take],
                              new_offsets, self.periods[indices])

    # ------------------------------------------------------------------
    # Introspection / conversion
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.row_offsets.size - 1

    @property
    def runs_per_row(self) -> np.ndarray:
        """Number of (code, dwell) runs in each row."""
        return np.diff(self.row_offsets)

    def row(self, i: int) -> Signature:
        """Unpack one row into a per-die :class:`Signature`."""
        lo, hi = self.row_offsets[i], self.row_offsets[i + 1]
        entries = [SignatureEntry(int(c), float(d))
                   for c, d in zip(self.codes[lo:hi],
                                   self.durations[lo:hi])]
        return Signature(entries, float(self.periods[i]))

    def to_signatures(self) -> List[Signature]:
        """Unpack every row (diagnosis edge; O(total runs) objects)."""
        return [self.row(i) for i in range(len(self))]

    def start_times(self) -> np.ndarray:
        """Flat per-run start times, bit-compatible with ``Signature``.

        Row ``i``'s slice equals ``Signature._starts[:-1]`` of the
        unpacked row: a 0 head followed by the sequential ``np.cumsum``
        of the row's durations.  Computed once over a zero-padded
        ``(N, max_runs)`` stack -- trailing zeros never perturb the
        prefix sums, so each row's cumsum is bit-identical to the
        scalar one -- then gathered back to CSR.
        """
        if self._starts is None:
            counts = self.runs_per_row
            n = len(self)
            if n == 0 or self.codes.size == 0:
                self._starts = np.zeros(self.codes.size)
                return self._starts
            local = (np.arange(self.codes.size)
                     - np.repeat(self.row_offsets[:-1], counts))
            rows = np.repeat(np.arange(n), counts)
            padded = np.zeros((n, int(counts.max())))
            padded[rows, local] = self.durations
            csums = np.cumsum(padded, axis=1)
            starts = np.empty(self.codes.size)
            starts[self.row_offsets[:-1]] = 0.0
            inner = local > 0
            starts[inner] = csums[rows[inner], local[inner] - 1]
            self._starts = starts
        return self._starts

    # ------------------------------------------------------------------
    # The fleet-NDF kernel
    # ------------------------------------------------------------------
    def ndf_to(self, golden: Signature) -> np.ndarray:
        """Exact NDF of every row against a shared golden signature.

        One flat pass over all rows, replacing N ``np.unique``
        breakpoint merges with one flat ``np.searchsorted`` plus
        integer rank bookkeeping:

        1. one ``searchsorted`` of the concatenated observed start
           array onto the golden's starts yields, per observed event,
           the golden code in force and the event's rank among the
           golden breakpoints; the dual ranks -- how many observed
           starts precede each golden breakpoint in each row -- follow
           from a per-row histogram of those ranks (pure integer math,
           so the merge order is exact even for breakpoints one ulp
           apart);
        2. the ranks give each event's position in its row's merged
           partition directly, so the merge is a scatter -- no sort;
        3. duplicate instants collapse (keeping the event that already
           carries both post-change codes), widths close each row at
           the period, and the Hamming-weighted widths segment-reduce
           by row.

        Every interval width, Hamming term and per-row summation
        reproduces :func:`repro.core.ndf.ndf`'s floating-point
        operations exactly -- including the scalar metric's midpoint
        evaluation, whose rounded midpoint can land on an interval's
        *right* endpoint when the interval is one ulp wide -- so the
        returned vector is bit-identical to calling
        ``ndf(row, golden)`` die by die (asserted by the equivalence
        and property tests).
        """
        n = len(self)
        if n == 0:
            return np.empty(0)
        period = golden.period
        if not np.allclose(self.periods, period, rtol=1e-6):
            raise ValueError(
                "signatures have different periods; resample to a "
                "common period first")
        s = self.start_times()                    # flat observed starts
        c = self.codes
        off = self.row_offsets
        counts = self.runs_per_row
        rowidx = np.repeat(np.arange(n), counts)
        g = golden._starts[:-1]                   # golden starts (k,)
        gc = golden._codes
        k = g.size

        # Golden code in force at each observed event (changes landing
        # exactly on the event instant included), and the event's rank
        # among the golden starts (strictly-earlier golden events).
        g_at_obs = gc[np.searchsorted(g, s, side="right") - 1]
        obs_rank = np.searchsorted(g, s, side="left")

        # Dual ranks without a second float comparison: within a row,
        # ``s_i <= g_j``  iff  ``obs_rank_i <= j`` (g is sorted), so
        # the number of observed events at or before each golden
        # breakpoint is the running histogram of obs_rank -- exact
        # integer arithmetic, immune to ulp-level float coincidences.
        hist = np.bincount(rowidx * (k + 1) + obs_rank,
                           minlength=n * (k + 1)).reshape(n, k + 1)
        gold_rank = np.cumsum(hist, axis=1)[:, :k].ravel()
        growidx = np.repeat(np.arange(n), k)
        obs_at_gold = c[off[growidx] + gold_rank - 1]
        g_tiled = np.tile(g, n)
        gc_tiled = np.tile(gc, n)

        # Scatter both event families into the merged partition.  An
        # event's merged position is its own index plus the other
        # family's rank; the strict/inclusive rank pair breaks
        # start-time ties consistently (observed first), so positions
        # never collide.
        merged_off = off + np.arange(n + 1) * k
        pos_obs = np.arange(s.size) + rowidx * k + obs_rank
        pos_gold = (off[growidx] + growidx * k
                    + np.tile(np.arange(k), n) + gold_rank)
        total = s.size + n * k
        times_m = np.empty(total)
        obs_m = np.empty(total, dtype=np.int64)
        gold_m = np.empty(total, dtype=np.int64)
        times_m[pos_obs] = s
        times_m[pos_gold] = g_tiled
        obs_m[pos_obs] = c
        obs_m[pos_gold] = obs_at_gold
        gold_m[pos_obs] = g_at_obs
        gold_m[pos_gold] = gc_tiled

        # Collapse duplicate instants exactly like the scalar metric's
        # np.unique: drop the earlier event of a tie (the later one
        # already carries both post-change codes).  Rows never bleed
        # into each other -- each row's last event is always kept.
        keep = np.ones(total, dtype=bool)
        if total > 1:
            keep[:-1] = times_m[1:] != times_m[:-1]
        keep[merged_off[1:] - 1] = True
        kept = np.flatnonzero(keep)
        t_k = times_m[kept]
        obs_k = obs_m[kept]
        gold_k = gold_m[kept]
        cum_keep = np.concatenate([[0], np.cumsum(keep)])
        off_k = cum_keep[merged_off]
        row_last = off_k[1:] - 1
        row_first = off_k[:-1]

        # Interval widths: to the next merged instant, the last one to
        # the period -- the same subtractions as np.diff over the
        # scalar path's [cuts..., period].
        nxt = np.empty(t_k.size)
        if t_k.size > 1:
            nxt[:-1] = t_k[1:]
        nxt[row_last] = period
        widths = nxt - t_k

        # The scalar metric evaluates both code functions at the
        # interval *midpoints*.  For any interval wider than one ulp
        # the midpoint lies strictly inside and sees this interval's
        # codes; but when two breakpoints sit one ulp apart the
        # rounded midpoint can land exactly on the right endpoint, and
        # ``code_at``'s right-sided search then reads the *next*
        # interval's state (wrapping to the row's first state past the
        # period).  Emulate that rounding exactly.
        mids = t_k + 0.5 * widths
        source = np.arange(t_k.size)
        bump = mids == nxt
        source[bump] = source[bump] + 1
        last_bumped = row_last[bump[row_last]]
        source[last_bumped] = row_first[bump[row_last]]
        distances = np.bitwise_count(
            np.bitwise_xor(obs_k[source],
                           gold_k[source])).astype(np.int64)
        contributions = distances * widths

        # Per-row reduction, grouped by row length: rows of one length
        # gather into a contiguous (m, L) block whose sum(axis=1) runs
        # the same pairwise-summation tree per row as np.sum over each
        # 1-D slice (which is what the scalar metric does), so the
        # values are bit-identical; a reduceat here would be
        # sequential and could drift by an ulp.  Blocks hold at most
        # 8192 values (64 KiB), below glibc's mmap threshold: a larger
        # freed block raises that threshold for the rest of the
        # process and changes how every later allocation is served.
        values = np.empty(n)
        lengths = np.diff(off_k)
        order = np.argsort(lengths, kind="stable")
        sizes, starts = np.unique(lengths[order], return_index=True)
        bounds = np.append(starts, n)
        for size, lo, hi in zip(sizes.tolist(), bounds[:-1].tolist(),
                                bounds[1:].tolist()):
            step = max(1, 8192 // size)
            for first in range(lo, hi, step):
                rows = order[first:min(first + step, hi)]
                block = contributions[off_k[rows][:, None]
                                      + np.arange(size)]
                values[rows] = block.sum(axis=1)
        return values / period


def fleet_ndf(batch: SignatureBatch, golden: Signature) -> np.ndarray:
    """Functional alias for :meth:`SignatureBatch.ndf_to`."""
    return batch.ndf_to(golden)

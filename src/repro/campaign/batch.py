"""Vectorized kernels of the campaign engine.

The per-die test flow (:class:`repro.core.testflow.SignatureTester`)
evaluates one trace, one zone encoding and one capture at a time.  At
fleet scale the same work is batched over stacked ``(N, samples)``
arrays and a packed signature representation:

* :func:`shared_basis_traces` synthesizes the ``(N, T)`` response
  stack of a Biquad spec population on the screening path: per-die
  coefficients ``[off, A cos(phi), A sin(phi)]`` times one shared
  ``[1; sin(w t); cos(w t)]`` basis, plus a per-row bound on its
  difference from the exact stack;
* :func:`batch_biquad_traces` is the bit-identical trace kernel (the
  screening fallback and the reference): the closed-form ``H(j w)``
  of every die evaluates as a real-array broadcast
  (:func:`repro.filters.biquad.batch_transfer`, replicating Python's
  scalar complex arithmetic bit for bit) and the tone accumulation of
  :func:`batch_through_eval` reuses one scratch buffer -- no per-die
  ``BiquadFilter``/``Multitone`` objects;
* :func:`batch_netlist_traces` does the same for stacks of
  same-topology linear netlist CUTs (fault dictionaries): one
  :func:`repro.circuits.ac.ac_analysis_batch` sweep solves every
  circuit per frequency through a single batched ``np.linalg.solve``,
  one :func:`repro.circuits.dc.dc_solve_batch` pass supplies the DC
  gains;
* :func:`batch_multitone_eval` evaluates N same-frequency multitones on
  a shared time grid in one broadcast pass, and
  :func:`batch_responses` propagates one stimulus through N linear CUTs
  object by object -- both retained as the per-die reference the
  equivalence tests and benchmarks compare the fused kernels against;
* :func:`batch_codes` pushes the whole ``(N, samples)`` point stack
  through the exact zone encoder at once -- monitor banks take the
  fused shared-branch path of
  :func:`repro.monitor.bank_encode.monitor_bank_codes` (one in-place
  EKV table per model card per gate signal, per-boundary balances in
  reused scratch, packed code accumulation).  Screening encodes
  through the golden's
  :class:`~repro.monitor.bank_encode.ThresholdTable` instead and
  keeps :func:`batch_codes` for the rows the table sends back;
* :func:`batch_extract` run-length extracts the whole code stack into
  one packed :class:`repro.core.signature_batch.SignatureBatch` (CSR
  ``codes``/``durations``/``row_offsets``) in a single pass -- per-die
  :class:`~repro.core.signature.Signature` objects exist only at the
  diagnosis edges;
* :meth:`SignatureBatch.ndf_to` scores every row against the golden in
  one flat kernel (no per-die ``np.unique`` breakpoint merges);
  :func:`batch_signatures`/:func:`batch_ndf` remain as the unpacked
  per-die reference implementations.

The exact kernels replicate the floating-point expression order of
the per-die path (same complex quotient and ``hypot``/``arctan2``
rounding in the transfer evaluation, same offset-then-tone
accumulation, same ``w*t + phase`` association, same run-length
subtractions and NDF interval sums).  A batched campaign with
``refine`` disabled therefore produces **bit-identical** codes,
signatures, NDFs and verdicts to a serial :class:`SignatureTester`
with ``refine=False``; traces are bit-identical except on the
spec-population path, whose shared-basis traces are certified to give
the same codes (``docs/paper_map.md`` states the guard-band
argument).  The campaign equivalence tests assert this for every
population kind and executor.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ndf import ndf
from repro.core.scratch import SCRATCH
from repro.core.signature import Signature
from repro.core.signature_batch import SignatureBatch
from repro.core.zones import ZoneEncoder
from repro.filters.biquad import (
    BiquadSpec,
    batch_transfer_arrays,
    spec_arrays,
)
from repro.monitor.bank_encode import monitor_bank_codes
from repro.signals.multitone import Multitone


def sample_times(period: float, samples_per_period: int) -> np.ndarray:
    """The uniform capture grid ``[0, period)`` of the test flow.

    Matches :meth:`repro.signals.waveform.Waveform.from_function` with
    ``t_start=0`` bit for bit, so batched and per-die captures land on
    the same instants.
    """
    if samples_per_period < 2:
        raise ValueError("need at least 2 samples per period")
    return period * np.arange(samples_per_period) / samples_per_period


def batch_multitone_eval(signals: Sequence[Multitone],
                         times: np.ndarray) -> np.ndarray:
    """Evaluate N multitones sharing tone frequencies -> ``(N, T)``.

    All signals must carry the same tone count and, tone for tone, the
    same frequency (the campaign populations are LTI responses to one
    stimulus, so this holds by construction).  The accumulation order
    replicates :meth:`Multitone.__call__` exactly: start from the DC
    offset, then add tones in sequence.  This is the per-die-object
    reference path; spec populations synthesize through
    :func:`batch_biquad_traces` instead.
    """
    times = np.asarray(times, dtype=float)
    if not signals:
        return np.empty((0, times.size))
    num_tones = len(signals[0].tones)
    for signal in signals:
        if len(signal.tones) != num_tones:
            raise ValueError("signals must share the tone layout")
    offsets = np.asarray([s.offset for s in signals])
    total = np.repeat(offsets[:, None], times.size, axis=1)
    for k in range(num_tones):
        freqs = np.asarray([s.tones[k].freq_hz for s in signals])
        if np.any(freqs != freqs[0]):
            raise ValueError(
                f"tone {k} frequencies differ across the population; "
                "batched evaluation needs a common tone grid")
        w_t = 2.0 * math.pi * freqs[0] * times
        amps = np.asarray([s.tones[k].amplitude for s in signals])
        phases = np.asarray([s.tones[k].phase_rad for s in signals])
        total = total + amps[:, None] * np.sin(w_t[None, :]
                                               + phases[:, None])
    return total


def batch_through_eval(stimulus: Multitone,
                       tone_transfers: Sequence[Tuple[np.ndarray,
                                                      np.ndarray]],
                       dc_gains: np.ndarray,
                       times: np.ndarray) -> np.ndarray:
    """``(N, T)`` steady-state stack from per-die transfer samples.

    ``tone_transfers[k]`` carries the ``(real, imag)`` arrays of every
    die's ``H`` at tone ``k``'s frequency; ``dc_gains`` the (exactly
    real) ``H(0)`` per die.  Replicates
    :meth:`repro.signals.multitone.Multitone.through` (see
    :func:`_amplitudes_phases`) followed by :func:`batch_multitone_eval`'s
    offset-then-tone accumulation, all staged through one scratch
    buffer so no fresh ``(N, T)`` temporaries are allocated per tone.
    """
    times = np.asarray(times, dtype=float)
    dc_gains = np.asarray(dc_gains, dtype=float)
    offsets = stimulus.offset * dc_gains
    shape = (dc_gains.shape[0], times.size)
    # The result rides a pooled buffer: callers that are done with the
    # stack may hand it back via SCRATCH.give (the engine's chunk
    # workers do, once the codes are extracted).
    total = SCRATCH.take(shape)
    np.copyto(total, offsets[:, None])  # == np.repeat, value for value
    buf = SCRATCH.take(shape)
    for tone, (h_re, h_im) in zip(stimulus.tones, tone_transfers):
        amps, phases = _amplitudes_phases(tone, h_re, h_im)
        w_t = 2.0 * math.pi * tone.freq_hz * times
        np.add(w_t[None, :], phases[:, None], out=buf)
        np.sin(buf, out=buf)
        np.multiply(amps[:, None], buf, out=buf)
        np.add(total, buf, out=total)
    SCRATCH.give(buf)
    return total


def _spec_transfers(specs: Sequence[BiquadSpec], stimulus: Multitone
                    ) -> Tuple[List[Tuple[np.ndarray, np.ndarray]],
                               np.ndarray]:
    """Per-tone ``(real, imag)`` transfers and DC gains of a population.

    The parameters stack once for all tone frequencies plus DC; a
    mixed-kind population stacks once per kind group.  ``H(0)`` of a
    Biquad is exactly real (the quotient's imaginary part is a signed
    zero), so :meth:`Multitone.through`'s DC-realness guard can never
    trip on the spec paths.
    """
    n = len(specs)
    kind_list = [spec.kind for spec in specs]
    tone_transfers = [(np.empty(n), np.empty(n))
                      for __ in stimulus.tones]
    dc_re = np.empty(n)
    for kind in set(kind_list):
        idx = [i for i, k in enumerate(kind_list) if k is kind]
        omega0, q, gain = spec_arrays([specs[i] for i in idx])
        for slot, tone in enumerate(stimulus.tones):
            h_re, h_im = batch_transfer_arrays(omega0, q, gain, kind,
                                               tone.freq_hz)
            tone_transfers[slot][0][idx] = h_re
            tone_transfers[slot][1][idx] = h_im
        dc_re[idx], __ = batch_transfer_arrays(omega0, q, gain, kind,
                                               0.0)
    return tone_transfers, dc_re


def _amplitudes_phases(tone, h_re: np.ndarray, h_im: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Output amplitude and phase (radians) of one tone, per die.

    Replicates :meth:`repro.signals.multitone.Multitone.through`:
    ``|H|`` via the C-library ``hypot`` (`np.hypot` rounds
    identically), phase via the ``arctan2 -> degrees -> + phase_deg ->
    radians`` round trip.
    """
    amps = tone.amplitude * np.hypot(h_re, h_im)
    phase_deg = tone.phase_deg + np.degrees(np.arctan2(h_im, h_re))
    return amps, np.radians(phase_deg)


def batch_biquad_traces(specs: Sequence[BiquadSpec],
                        stimulus: Multitone,
                        times: np.ndarray) -> np.ndarray:
    """Response stack of a Biquad spec population, bit-identical.

    Bit-identical to ``batch_multitone_eval([BiquadFilter(s).response(
    stimulus) for s in specs], times)`` -- i.e. to the per-die
    reference flow -- without constructing a single per-die object:
    the closed-form transfer of all N dies evaluates per tone as one
    real-array broadcast and the trace accumulates through
    :func:`batch_through_eval`.  Screening synthesizes through
    :func:`shared_basis_traces` and calls this only for the rows whose
    codes it cannot certify.
    """
    times = np.asarray(times, dtype=float)
    if not specs:
        return np.empty((0, times.size))
    tone_transfers, dc_re = _spec_transfers(specs, stimulus)
    return batch_through_eval(stimulus, tone_transfers, dc_re, times)


def shared_basis_traces(specs: Sequence[BiquadSpec],
                        stimulus: Multitone, times: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Response stack by small GEMMs, plus a per-row error bound (V).

    Every die's response is ``off + sum_k A_k sin(w_k t + phi_k)`` on
    one shared grid, i.e. the ``(N, 2K+1)`` coefficient matrix
    ``[off, A cos(phi), A sin(phi)]`` times the ``(2K+1, T)`` basis
    ``[1; sin(w_k t); cos(w_k t)]``, so ``sin`` runs once per tone and
    sample instead of once per die.  Coefficients come from the same
    transfers, amplitudes and phases as :func:`batch_biquad_traces`.

    The stack is not bit-identical to :func:`batch_biquad_traces`; the
    second result bounds, per row, ``|shared - exact|`` from the
    coefficients.  Both paths approximate the same real sum; per tone,
    the exact path rounds the argument ``w t + phi`` (at most
    ``u (|w t| + |phi|)``, ``u = 2**-53``) and both round their library
    ``sin``/``cos`` calls, products and sums (a few ``u`` per term),
    giving ``u [sum_k A_k (max|w_k t| + |phi_k| + 15) + 3 K (|off| +
    2 sum_k A_k)]``, doubled for second-order terms.
    """
    times = np.asarray(times, dtype=float)
    n = len(specs)
    tones = stimulus.tones
    basis = np.empty((2 * len(tones) + 1, times.size))
    if n == 0:
        return np.empty((0, times.size)), np.empty(0)
    tone_transfers, dc_re = _spec_transfers(specs, stimulus)
    coefficients = np.empty((n, basis.shape[0]))
    coefficients[:, 0] = stimulus.offset * dc_re
    basis[0] = 1.0
    amplitude_sum = np.zeros(n)
    tone_terms = np.zeros(n)
    for k, (tone, (h_re, h_im)) in enumerate(zip(tones, tone_transfers)):
        amps, phases = _amplitudes_phases(tone, h_re, h_im)
        w_t = 2.0 * math.pi * tone.freq_hz * times
        coefficients[:, 2 * k + 1] = amps * np.cos(phases)
        coefficients[:, 2 * k + 2] = amps * np.sin(phases)
        basis[2 * k + 1] = np.sin(w_t)
        basis[2 * k + 2] = np.cos(w_t)
        amps = np.abs(amps)
        amplitude_sum += amps
        tone_terms += amps * (np.max(np.abs(w_t)) + np.abs(phases)
                               + 15.0)
    # Row blocks of ~2**17 multiply-adds stay below OpenBLAS's
    # threading threshold: one large threaded GEMM measured ~10x
    # slower on a 2-core box, and its spinning threads slow whatever
    # runs next.
    y = SCRATCH.take((n, times.size))
    step = max(1, 2 ** 17 // basis.size)
    for lo in range(0, n, step):
        np.matmul(coefficients[lo:lo + step], basis,
                  out=y[lo:lo + step])
    bound = 2.0 * 2.0 ** -53 * (
        tone_terms + 3.0 * len(tones)
        * (np.abs(coefficients[:, 0]) + 2.0 * amplitude_sum))
    return y, bound


#: Attributes a netlist CUT class exposes to join the stacked MNA fast
#: path (see :class:`repro.filters.towthomas.TowThomasBiquad`, which
#: defines them for the Tow-Thomas realization).
_NETLIST_PROTOCOL = ("system", "circuit", "ac_output_node",
                     "ac_input_node", "ac_input_source")


def batch_netlist_traces(cuts: Sequence, stimulus: Multitone,
                         times: np.ndarray) -> Optional[np.ndarray]:
    """Response stack of same-topology linear netlist CUTs, or None.

    Qualifying cuts -- linear, shared topology, and publishing the
    batched-synthesis protocol (``system``/``circuit`` plus the
    ``ac_output_node``/``ac_input_node``/``ac_input_source``
    attributes that :class:`~repro.filters.towthomas.TowThomasBiquad`
    defines) -- are solved through
    :func:`repro.circuits.ac.ac_analysis_batch` -- one stacked MNA
    solve per tone frequency -- plus one batched DC pass for the
    offsets, then synthesized by :func:`batch_through_eval`.
    Bit-identical to ``[cut.response(stimulus) for cut in cuts]``
    pushed through :func:`batch_multitone_eval`, because the batched
    LAPACK solves, the numpy transfer quotient and the through()
    replication all round exactly like the per-cut path.

    Returns ``None`` when the stack does not qualify (mixed
    topologies or observation nodes, nonlinear members, non-netlist
    cuts); callers fall back to the per-cut reference.
    """
    from repro.circuits.ac import ac_analysis_batch, systems_share_topology
    from repro.circuits.dc import dc_solve_batch
    from repro.filters.towthomas import TowThomasBiquad

    times = np.asarray(times, dtype=float)
    cuts = list(cuts)
    if not cuts or not all(
            all(hasattr(cut, name) for name in _NETLIST_PROTOCOL)
            for cut in cuts):
        return None
    # A protocol class warrants that its response()/transfer()/dc_gain
    # semantics are exactly what this kernel replicates; a Tow-Thomas
    # subclass that overrides response() breaks that warranty, so it
    # falls back to the per-cut loop.
    if any(isinstance(cut, TowThomasBiquad)
           and type(cut).response is not TowThomasBiquad.response
           for cut in cuts):
        return None
    head = cuts[0]
    out_node = head.ac_output_node
    in_node = head.ac_input_node
    source_name = head.ac_input_source
    if any(cut.ac_output_node != out_node
           or cut.ac_input_node != in_node
           or cut.ac_input_source != source_name for cut in cuts[1:]):
        return None
    systems = [cut.system for cut in cuts]
    first = systems[0]
    if first.has_nonlinear or not all(
            systems_share_topology(first, s) for s in systems[1:]):
        return None

    # AC transfer at every tone frequency, all cuts per solve.
    sweep = ac_analysis_batch(systems,
                              [tone.freq_hz for tone in stimulus.tones])
    transfer = sweep.transfer(out_node, in_node)  # (M, K) complex

    # DC gains replicate the per-cut dc_gain protocol: drive the input
    # source with 1 V, solve the (linear) operating point, read the
    # output node.
    sources = [cut.circuit.element(source_name) for cut in cuts]
    saved = [source.dc for source in sources]
    for source in sources:
        source.dc = 1.0
    try:
        solutions = dc_solve_batch(systems)
    finally:
        for source, value in zip(sources, saved):
            source.dc = value
    out_idx = first.circuit.node_index(out_node)
    dc_gains = (solutions[:, out_idx] if out_idx >= 0
                else np.zeros(len(cuts)))

    tone_transfers = [
        (np.ascontiguousarray(transfer[:, k].real),
         np.ascontiguousarray(transfer[:, k].imag))
        for k in range(len(stimulus.tones))]
    return batch_through_eval(stimulus, tone_transfers, dc_gains, times)


def batch_responses(cuts: Sequence, stimulus: Multitone) -> List[Multitone]:
    """Exact steady-state output multitone of each linear CUT.

    Every CUT must expose ``response(stimulus) -> Multitone``.  This is
    the per-cut reference path: spec populations go through
    :func:`batch_biquad_traces`, netlist stacks through
    :func:`batch_netlist_traces`; only heterogeneous cut lists pay the
    per-object loop.
    """
    return [cut.response(stimulus) for cut in cuts]


def batch_codes(encoder: ZoneEncoder, x: np.ndarray,
                y: np.ndarray) -> np.ndarray:
    """Zone codes of a stacked point set; ``x`` broadcasts over rows.

    Monitor banks encode through the fused shared-branch path (one
    in-place EKV evaluation per model card per gate signal, reused
    balance scratch, packed bit accumulation -- with the shared ``x``
    kept one-dimensional); any other boundary family falls back to the
    generic per-boundary evaluation on a broadcast view.  Both produce
    bit-identical codes to ``encoder.code`` point by point.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    fast = monitor_bank_codes(encoder, x, y)
    if fast is not None:
        return np.asarray(fast, dtype=np.int64)
    x = np.broadcast_to(x, y.shape)
    return np.asarray(encoder.code(x, y), dtype=np.int64)


def batch_extract(times: np.ndarray, codes: np.ndarray,
                  period: float) -> SignatureBatch:
    """One-pass packed run-length extraction of a whole code stack."""
    return SignatureBatch.from_code_stack(times, codes, period)


def batch_signatures(times: np.ndarray, codes: np.ndarray,
                     period: float) -> List[Signature]:
    """Per-die :class:`Signature` objects for a code stack.

    Diagnosis-edge convenience: packs the stack once
    (:func:`batch_extract`) and unpacks every row.  Hot paths should
    stay on the :class:`SignatureBatch` instead.
    """
    return batch_extract(times, codes, period).to_signatures()


def batch_ndf(signatures: Sequence[Signature],
              golden: Signature) -> np.ndarray:
    """Per-die reference NDF loop (exact, unpacked).

    Kept as the equivalence baseline for
    :meth:`SignatureBatch.ndf_to`; campaign hot paths use the packed
    kernel.
    """
    return np.asarray([ndf(s, golden) for s in signatures], dtype=float)

"""Zone encoding for monitor banks: the exact fused kernel and tables.

(Stage 2 of the pipeline -- the paper's Table I curves drive this
encoder; see ``docs/paper_map.md`` for the artifact <-> module map
and the bit-compatibility contract these kernels honour.)

Screening encodes through a :class:`ThresholdTable`: with the
stimulus ``x`` shared by every die, each column's code is a step
function of ``y`` whose breakpoints :func:`threshold_table` finds once
per encoder by bisection through the exact kernel below.  A table
encodes with compares and an xor-delta code assembly, and sends back
every row with a sample inside a breakpoint's guard band, outside its
certified domain, or non-finite; those rows, noisy 2-D ``x`` stacks
and Monte Carlo-varied banks go through :func:`monitor_bank_codes`.

Encoding a ``(N, samples)`` trace stack through a
:class:`~repro.core.zones.ZoneEncoder` made of
:class:`~repro.monitor.comparator.MonitorBoundary` objects evaluates
each boundary's branch-current balance independently -- yet every
device of a Table I bank shares one MOS model card, so the expensive
EKV term

    B(v) = softplus((v - VT) / (2 n UT))^2

is *the same function* for every device: per-device currents differ
only by the ``unit_current`` prefactor.  :func:`monitor_bank_codes`
fuses the whole bank around that observation:

* **shared softplus tables** -- one per (model card, gate signal):
  for the paper bank the six y-hooked devices collapse onto a single
  ``(N, T)`` transcendental evaluation, computed fully in place, the
  x-hooked ones onto a single ``(T,)`` one (the shared stimulus is
  deliberately *not* broadcast), DC gates onto cached scalars;
* **shared branch sides** -- each boundary's left/right sum
  ``I_a + I_b`` (a per-boundary unit-current weighting of the tables)
  is content-memoized, so Table I's curves 3-5, which wire identical
  devices to ``(y, x)``, evaluate their common side once;
* **subtraction-free sign test** -- IEEE rounding preserves the sign
  of a difference exactly (``fl(l - r) < 0`` iff ``l < r``, and
  ``origin_sign`` in ``{-1, +1}`` only flips the direction), so the
  comparator bit is a single direct comparison per boundary, no
  balance array ever materializes;
* **packed code assembly** -- per-boundary bits accumulate straight
  into a narrow ``uint8`` code plane (banks up to eight boundaries)
  that widens to ``int64`` once at the end, instead of an ``int64``
  shift/or chain per bit;
* **pooled scratch** -- tables, sides and bit planes recycle through
  :data:`repro.core.scratch.SCRATCH`, so steady-state chunks allocate
  nothing but their result.

Bit-compatibility: the per-device current is still computed as
``unit_current * B(gate)`` with the exact argument expression of
:meth:`MosModel.saturation_current`, branch sides still combine as
``I1 + I2`` and ``I3 + I4`` in that association, and the bit equals
the sign test of :meth:`Boundary.bit` -- so the returned codes are
bit-identical to ``encoder.code(x, y)`` (asserted by the campaign
equivalence and hypothesis tests, which also pin the fused kernel to
:func:`monitor_bank_codes_reference`, the retained pre-fusion loop,
and pin table codes to the fused kernel).  Monte Carlo-varied banks
simply get less sharing: each shifted model card owns its own cache
slot, never a wrong one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.scratch import SCRATCH
from repro.core.zones import ZoneEncoder
from repro.devices.mos_model import MosModel, MosParams, softplus
from repro.monitor.comparator import MonitorBoundary


def _branch_values(params: MosParams, gate):
    """The exact EKV branch expression for scalar / 1-D gates."""
    vgs_d = params.polarity * np.asarray(gate, dtype=float)
    return softplus((vgs_d - params.vt0)
                    / (2.0 * params.n * params.thermal_voltage)) ** 2


def _branch_table_2d(params: MosParams, gate: np.ndarray) -> np.ndarray:
    """EKV branch of a 2-D gate stack, computed in place.

    Same float expression tree as :func:`_branch_values` -- including
    :func:`softplus`'s clamp-at-30 overflow guard and the final square
    -- but staged through a single pooled buffer instead of one fresh
    ``(N, T)`` temporary per operation.
    """
    arg = SCRATCH.take(gate.shape)
    np.multiply(gate, float(params.polarity), out=arg)
    np.subtract(arg, params.vt0, out=arg)
    np.divide(arg, 2.0 * params.n * params.thermal_voltage, out=arg)
    # softplus: where(x > 30, x, log1p(exp(min(x, 30)))).  When no
    # element exceeds the clamp, min/where are bitwise no-ops and the
    # guard reduces to one read-only max scan.
    if arg.size and float(np.max(arg)) > 30.0:
        big = arg > 30.0
        saved = arg[big]
        np.minimum(arg, 30.0, out=arg)
        np.exp(arg, out=arg)
        np.log1p(arg, out=arg)
        arg[big] = saved
    else:
        np.exp(arg, out=arg)
        np.log1p(arg, out=arg)
    np.multiply(arg, arg, out=arg)  # ** 2
    return arg


def _table_key(params: MosParams, gate_key) -> Tuple:
    return (params.polarity, params.vt0, params.n,
            params.thermal_voltage, gate_key)


def _gate_for(hookup, x, y):
    if hookup == "x":
        return x, "x"
    if hookup == "y":
        return y, "y"
    return float(hookup), float(hookup)


def monitor_bank_codes(encoder: ZoneEncoder, x: np.ndarray,
                       y: np.ndarray) -> Optional[np.ndarray]:
    """Zone codes of a trace stack through a monitor-boundary bank.

    ``x`` is the shared stimulus samples ``(T,)`` (broadcast over
    rows), ``y`` the response stack ``(N, T)``; 2-D ``x`` stacks (the
    noisy-capture path) take the same fused kernel.  Returns ``None``
    when the encoder contains non-monitor boundaries (callers fall
    back to the generic per-boundary path).
    """
    if not all(isinstance(b, MonitorBoundary) for b in encoder.boundaries):
        return None
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(x.shape, y.shape)

    tables: Dict[Tuple, Union[float, np.ndarray]] = {}
    sides: Dict[Tuple, Union[float, np.ndarray]] = {}

    def branch_for(device: MosModel, hookup):
        gate, gate_key = _gate_for(hookup, x, y)
        key = _table_key(device.params, gate_key)
        table = tables.get(key)
        if table is None:
            if np.ndim(gate) >= 2:
                table = _branch_table_2d(device.params, gate)
            else:
                table = _branch_values(device.params, gate)
            tables[key] = table
        return table, key

    def side_for(boundary: MonitorBoundary, pair) -> np.ndarray:
        """Memoized branch sum ``I_a + I_b`` of one comparator side."""
        parts = []
        for position in pair:
            device = boundary.devices[position]
            hookup = boundary.config.hookups[position]
            __, table_key = branch_for(device, hookup)
            parts.append((table_key, device.unit_current))
        side_key = tuple(parts)
        value = sides.get(side_key)
        if value is not None:
            return value
        running = None  # full-stack partial sum (owns a pooled buffer)
        spill = None    # scalar / 1-D partial awaiting a 2-D partner
        for position in pair:
            device = boundary.devices[position]
            hookup = boundary.config.hookups[position]
            table, __ = branch_for(device, hookup)
            if np.ndim(table) >= 2:
                if running is None:
                    running = np.multiply(table, device.unit_current,
                                          out=SCRATCH.take(table.shape))
                else:
                    # Rare: two full-stack gates on one side.  Addition
                    # is commutative bitwise, so folding the second
                    # product in preserves (I_a + I_b) exactly.
                    np.add(running, table * device.unit_current,
                           out=running)
            else:
                current = device.unit_current * table
                if np.ndim(current) == 0:
                    current = float(current)
                spill = current if spill is None else spill + current
        if spill is not None:
            value = spill if running is None \
                else np.add(running, spill, out=running)
        else:
            value = running
        sides[side_key] = value
        return value

    num_bits = len(encoder.boundaries)
    bits = SCRATCH.take(shape, dtype=bool)
    narrow = np.uint8 if num_bits <= 8 else np.int64
    codes = np.zeros(shape, dtype=narrow)
    for boundary in encoder.boundaries:
        left = side_for(boundary, (0, 1))
        right = side_for(boundary, (2, 3))
        # bit = ((I1+I2) - (I3+I4)) * origin_sign < 0.  Rounding keeps
        # the difference's sign exact, and origin_sign is exactly +-1,
        # so the whole test collapses to one direct comparison.
        if boundary.origin_sign > 0:
            np.less(left, right, out=bits)
        else:
            np.greater(left, right, out=bits)
        np.left_shift(codes, 1, out=codes)
        np.bitwise_or(codes, bits, out=codes)
    SCRATCH.give(bits,
                 *(v for v in tables.values() if isinstance(v, np.ndarray)
                   and v.ndim >= 2),
                 *(v for v in sides.values() if isinstance(v, np.ndarray)
                   and v.ndim >= 2))
    if codes.dtype is not np.dtype(np.int64):
        codes = codes.astype(np.int64)
    return codes


def monitor_bank_codes_reference(encoder: ZoneEncoder, x: np.ndarray,
                                 y: np.ndarray) -> Optional[np.ndarray]:
    """The pre-fusion shared-branch encoder (PR 2), kept as baseline.

    Same shared softplus tables, but one fresh ``(N, T)`` temporary per
    device/boundary operation, an explicit balance subtraction, and an
    ``int64`` shift/or chain per bit.  Benchmarks time the fused kernel
    against this, and the equivalence tests assert both return
    bit-identical codes.
    """
    if not all(isinstance(b, MonitorBoundary) for b in encoder.boundaries):
        return None
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    cache: Dict[Tuple, Union[float, np.ndarray]] = {}
    codes: Optional[np.ndarray] = None
    for boundary in encoder.boundaries:
        currents = []
        for device, hookup in zip(boundary.devices,
                                  boundary.config.hookups):
            gate, gate_key = _gate_for(hookup, x, y)
            key = _table_key(device.params, gate_key)
            branch = cache.get(key)
            if branch is None:
                branch = _branch_values(device.params, gate)
                cache[key] = branch
            current = device.unit_current * branch
            if np.ndim(current) == 0:
                current = float(current)
            currents.append(current)
        balance = (currents[0] + currents[1]) - (currents[2] + currents[3])
        bit = (balance * boundary.origin_sign < 0).astype(np.int64)
        codes = bit if codes is None else (codes << 1) | bit
    return codes


# ----------------------------------------------------------------------
# Threshold-table encoding
# ----------------------------------------------------------------------
#: Minimum half-width, in volts, of the guard band around every
#: breakpoint of a :class:`ThresholdTable`.  Rows with a sample inside
#: a band are re-encoded by the exact kernel.
GUARD_BAND = 1e-9

#: A synthesized trace may be table-encoded only when the guard band is
#: at least this many times its synthesis-error bound.
CERTIFY_FACTOR = 1e3

#: Bound, in units of the unit roundoff ``u = 2**-53``, on the relative
#: error of one computed comparator side against its value with exact
#: ``exp``/``log1p``: two library calls of a few ulps each, the square,
#: the unit-current product and the side sum, with ample slack.
SIDE_ERROR_ULPS = 64.0

#: EKV argument ``(v - VT) / (2 n UT)`` range of the y-hooked devices
#: over which a table is certified, and the narrower range whose
#: samples it encodes.  Below the floor the squared softplus leaves the
#: normal doubles; above the ceiling :func:`softplus` clamps.
_CERTIFIED_ARGS = (-300.0, 29.0)
_ENCODED_ARGS = (-290.0, 28.0)

#: Guard half-width beyond which a breakpoint counts as uncertifiable
#: (every sample of its column is then re-encoded exactly).
_MAX_GUARD = 1.0

_UNIT_ROUNDOFF = 2.0 ** -53
_MAGNITUDE_BITS = np.int64(0x7FFF_FFFF_FFFF_FFFF)


def _flip_negative(bits: np.ndarray) -> np.ndarray:
    """Map IEEE double bit patterns to order-preserving int64 keys.

    The map is an involution, so it also maps keys back to bit
    patterns.
    """
    return bits ^ ((bits >> 63) & _MAGNITUDE_BITS)


def _keys(values: np.ndarray) -> np.ndarray:
    return _flip_negative(np.ascontiguousarray(values, np.float64)
                          .view(np.int64))


def _values(keys: np.ndarray) -> np.ndarray:
    return _flip_negative(np.ascontiguousarray(keys)).view(np.float64)


def _gate_range(params: MosParams, args: Tuple[float, float]
                ) -> Tuple[float, float]:
    """Gate voltages whose EKV argument spans ``args``."""
    scale = 2.0 * params.n * params.thermal_voltage
    ends = [params.polarity * (params.vt0 + a * scale) for a in args]
    return min(ends), max(ends)


def _exact_sides(boundary: MonitorBoundary, x: np.ndarray,
                 y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(I1 + I2, I3 + I4)`` with the fused kernel's argument rounding."""
    currents = []
    for device, hookup in zip(boundary.devices, boundary.config.hookups):
        gate, __ = _gate_for(hookup, x, y)
        currents.append(device.unit_current
                        * _branch_values(device.params, gate))
    return currents[0] + currents[1], currents[2] + currents[3]


@dataclass(frozen=True)
class ThresholdTable:
    """Per-column breakpoints of a monitor bank on one shared ``x`` grid.

    With ``x`` fixed at column ``t``, every boundary of a bank with one
    y-hooked device has a comparator bit that is a step function of
    ``y``, so the bank's code is ``base[t]`` with bit ``j`` flipped for
    ``y >= breakpoints[j, t]``.  ``lower``/``upper`` bound the guard
    band of each breakpoint; ``+inf`` everywhere marks a boundary with
    no step in a column, ``(-inf, +inf)`` an uncertifiable step.
    ``y_range`` is the encoded domain and ``guard`` the minimum guard
    half-width.  :func:`threshold_table` builds and certifies a table;
    :meth:`encode` applies it.
    """

    breakpoints: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    base: np.ndarray
    y_range: Tuple[float, float]
    guard: float

    def encode(self, y: np.ndarray, trace_error=None
               ) -> Tuple[np.ndarray, np.ndarray]:
        """``uint8`` codes of an ``(N, T)`` stack and the rows to redo.

        The returned codes equal the exact encoder's on every row not
        listed.  A row is listed when any sample lies in a guard band,
        outside ``y_range`` or is not finite, or when its
        ``trace_error`` bound (volts, scalar or per row) is not
        ``CERTIFY_FACTOR`` times below the guard band.
        """
        y = np.asarray(y, dtype=float)
        shape = y.shape
        low = np.empty(shape, dtype=np.uint8)
        high = SCRATCH.take(shape, dtype=np.uint8)
        np.copyto(low, self.base)
        np.copyto(high, self.base)
        above = SCRATCH.take(shape, dtype=bool)
        plane = above.view(np.uint8)
        num_bits = self.lower.shape[0]
        for j in range(num_bits):
            weight = np.uint8(1 << (num_bits - 1 - j))
            for edge, codes in ((self.lower[j], low),
                                (self.upper[j], high)):
                if np.all(edge == np.inf):
                    continue  # no step of this boundary anywhere
                np.greater_equal(y, edge, out=above)
                if weight > 1:
                    np.multiply(plane, weight, out=plane)
                np.bitwise_xor(codes, plane, out=codes)
        # Outside every band both edges agree, so the codes differ
        # exactly on samples inside a band.
        np.not_equal(low, high, out=above)
        redo = np.any(above, axis=1)
        redo |= ~(np.min(y, axis=1) >= self.y_range[0])
        redo |= ~(np.max(y, axis=1) <= self.y_range[1])
        if trace_error is not None:
            redo |= ~(self.guard >= CERTIFY_FACTOR
                      * np.asarray(trace_error, dtype=float))
        SCRATCH.give(high, above)
        return low, np.flatnonzero(redo)


def threshold_table(encoder: ZoneEncoder,
                    x: np.ndarray) -> Optional[ThresholdTable]:
    """Certified :class:`ThresholdTable` of a bank on a shared ``x``.

    Returns ``None`` unless every boundary is a
    :class:`MonitorBoundary` with exactly one y-hooked device (so its
    bit is monotone in ``y`` at fixed ``x``), the bank has at most
    eight boundaries and ``x`` is a finite 1-D grid.

    Breakpoints are found by bisection on the ordered int64 image of
    the doubles, each probe going through :func:`monitor_bank_codes`,
    so a breakpoint is a point where the exact kernel's bit changes.
    The guard band of each breakpoint then starts at
    :data:`GUARD_BAND` and widens until the comparator's relative
    margin ``|L - R| / (L + R)`` at half the band exceeds
    ``4 * SIDE_ERROR_ULPS`` unit roundoffs on both sides; the ends of
    the certified domain must clear the same margin.  See
    ``docs/paper_map.md`` for why that makes the table agree with the
    exact kernel outside the bands.
    """
    boundaries = encoder.boundaries
    if not boundaries or len(boundaries) > 8 or not all(
            isinstance(b, MonitorBoundary) for b in boundaries):
        return None
    cards = []
    for boundary in boundaries:
        hooked = [device for device, hookup
                  in zip(boundary.devices, boundary.config.hookups)
                  if isinstance(hookup, str) and hookup == "y"]
        if len(hooked) != 1:
            return None
        cards.append(hooked[0].params)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0 or not np.all(np.isfinite(x)):
        return None

    def domain(args):
        ranges = [_gate_range(card, args) for card in cards]
        return (max(r[0] for r in ranges), min(r[1] for r in ranges))

    y_min, y_max = domain(_CERTIFIED_ARGS)
    num_bits, columns = len(boundaries), x.size
    shifts = np.arange(num_bits - 1, -1, -1)[:, None]

    def bits(probe: np.ndarray) -> np.ndarray:
        """Bit ``j`` of the exact code of row ``j`` of ``probe``."""
        return ((monitor_bank_codes(encoder, x, probe) >> shifts) & 1
                ).astype(bool)

    def margins(probe: np.ndarray) -> np.ndarray:
        out = np.empty(probe.shape)
        for j, boundary in enumerate(boundaries):
            left, right = _exact_sides(boundary, x, probe[j])
            with np.errstate(invalid="ignore", divide="ignore"):
                out[j] = np.abs(left - right) / (left + right)
        return out

    bottom = np.full((num_bits, columns), y_min)
    top = np.full((num_bits, columns), y_max)
    bit_bottom = bits(bottom)
    step = bit_bottom != bits(top)
    key_low, key_high = _keys(bottom), _keys(top)
    while True:
        active = step & (key_low + 1 < key_high)
        if not active.any():
            break
        middle = (key_low >> 1) + (key_high >> 1) + (key_low & key_high & 1)
        flipped = bits(_values(np.where(active, middle, key_low))) \
            != bit_bottom
        key_high = np.where(active & flipped, middle, key_high)
        key_low = np.where(active & ~flipped, middle, key_low)
    breakpoints = np.where(step, _values(key_high), np.inf)

    limit = 4.0 * SIDE_ERROR_ULPS * _UNIT_ROUNDOFF
    failed = ~step & ~((margins(bottom) > limit) & (margins(top) > limit))
    guard = np.full((num_bits, columns), GUARD_BAND)
    pending = step.copy()
    while pending.any():
        half = np.where(pending, guard / 2.0, 0.0)
        below = np.where(pending, breakpoints - half, y_min)
        above = np.where(pending, breakpoints + half, y_max)
        clear = (((below < y_min) | (margins(below) > limit))
                 & ((above > y_max) | (margins(above) > limit)))
        pending &= ~clear
        too_wide = pending & (guard * 4.0 > _MAX_GUARD)
        failed |= too_wide
        pending &= ~too_wide
        guard = np.where(pending, guard * 4.0, guard)
    lower = np.where(step, breakpoints - guard, np.inf)
    upper = np.where(step, breakpoints + guard, np.inf)
    lower[failed] = -np.inf
    upper[failed] = np.inf
    base = monitor_bank_codes(encoder, x, bottom[:1])[0].astype(np.uint8)
    return ThresholdTable(breakpoints, lower, upper, base,
                          domain(_ENCODED_ARGS), GUARD_BAND)

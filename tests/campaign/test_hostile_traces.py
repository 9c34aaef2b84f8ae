"""Hostile measured traces get a typed rejection, never a verdict.

A trace stack with NaN or infinite samples, or with rows of the wrong
length, must raise :class:`InvalidTraceError` (a ``ValueError``) that
names the offending rows or the expected sample count -- not return
FAIL verdicts, and not surface as a raw numpy broadcast error.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.campaign import (
    CampaignEngine,
    GoldenCache,
    InvalidTraceError,
    ScreeningRequest,
    SharedMemoryExecutor,
    montecarlo_dies,
    trace_population,
)
from repro.campaign.batch import batch_biquad_traces
from repro.monitor.configurations import table1_encoder
from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS

pytestmark = pytest.mark.campaign

SAMPLES = 512


@pytest.fixture(scope="module")
def engine():
    return CampaignEngine.from_parts(table1_encoder(), PAPER_STIMULUS,
                                     PAPER_BIQUAD,
                                     samples_per_period=SAMPLES,
                                     cache=GoldenCache())


@pytest.fixture(scope="module")
def clean_stack(engine):
    specs = montecarlo_dies(PAPER_BIQUAD, 6, sigma_f0=0.04,
                            seed=11).specs
    return batch_biquad_traces(specs, PAPER_STIMULUS,
                               engine.golden().times)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_is_rejected_naming_the_rows(
        engine, clean_stack, bad):
    stack = clean_stack.copy()
    stack[1, 17] = bad
    stack[4, SAMPLES - 1] = bad
    with pytest.raises(InvalidTraceError) as excinfo:
        engine.submit(ScreeningRequest(
            population=trace_population(stack)))
    assert excinfo.value.rows == (1, 4)
    assert "rows [1, 4]" in str(excinfo.value)
    assert isinstance(excinfo.value, ValueError)


def test_non_finite_rows_are_named_globally_across_chunks(
        engine, clean_stack):
    """Chunked screening still names population rows, not chunk rows."""
    chunked = CampaignEngine(replace(engine.config, chunk_size=2))
    stack = clean_stack.copy()
    stack[5, 0] = np.nan
    with pytest.raises(InvalidTraceError) as excinfo:
        chunked.run(trace_population(stack), band=None)
    assert excinfo.value.rows == (5,)


def test_non_finite_rows_cross_the_shared_memory_pool(clean_stack):
    engine = CampaignEngine.from_parts(
        table1_encoder(), PAPER_STIMULUS, PAPER_BIQUAD,
        samples_per_period=SAMPLES,
        executor=SharedMemoryExecutor(max_workers=1))
    stack = clean_stack.copy()
    stack[2, 3] = np.inf
    try:
        with pytest.raises(InvalidTraceError) as excinfo:
            engine.run(trace_population(stack), band=None)
    finally:
        engine.executor.shutdown()
    assert excinfo.value.rows == (2,)


def test_short_row_is_rejected_naming_it(clean_stack):
    rows = [list(row) for row in clean_stack]
    rows[3] = rows[3][:-5]
    with pytest.raises(InvalidTraceError) as excinfo:
        trace_population(rows)
    assert excinfo.value.rows == (3,)
    assert f"have {SAMPLES}" in str(excinfo.value)


def test_wrong_sample_count_names_the_expected_length(
        engine, clean_stack):
    with pytest.raises(InvalidTraceError,
                       match=f"captures {SAMPLES} per period"):
        engine.run(trace_population(clean_stack[:, :-1]), band=None)


def test_clean_stack_still_screens(engine, clean_stack):
    result = engine.run(trace_population(clean_stack), band="auto")
    assert result.num_dies == len(clean_stack)
    assert np.all(np.isfinite(result.ndfs))

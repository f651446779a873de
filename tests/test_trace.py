import hashlib

import pytest

from manetsim import parse_scenario, run_scenario
from manetsim.trace import DIGEST_BLOCK, Trace

from conftest import BASELINE


def reference_line(t, node, event, pkt="-", detail=""):
    """A trace line rendered from scratch, timestamp included."""
    line = f"{t:.9f} {node} {event} {pkt}"
    return f"{line} {detail}" if detail else line


def test_lines_match_reference_when_time_repeats_and_goes_back():
    # 2.5 -> 1.0 catches a cache that never re-renders an earlier time
    calls = [
        (1.0, 3, "tx_hello", "-", "to=*"),
        (1.0, 4, "deliver", 7, "hops=2"),
        (2.5, 0, "place", "-", ""),
        (1.0, 1, "drop", 8, "no_route"),
        (0.0, 2, "death"),
    ]
    trace = Trace()
    for call in calls:
        trace.emit(*call)
    assert trace.lines == [reference_line(*call) for call in calls]


def test_disabled_trace_records_nothing():
    trace = Trace(enabled=False)
    trace.emit(1.0, 0, "place")
    assert trace.lines == []


BLOCK_EDGES = [0, 1, DIGEST_BLOCK, DIGEST_BLOCK + 1]


def trace_of(count):
    trace = Trace()
    for i in range(count):
        trace.emit(i * 1e-3, i % 20, "cbr_send", i)
    return trace


@pytest.mark.parametrize("count", BLOCK_EDGES)
def test_digest_is_sha256_of_text_at_block_edges(count):
    trace = trace_of(count)
    assert trace.digest() == hashlib.sha256(trace.text().encode()).hexdigest()


@pytest.mark.parametrize("count", BLOCK_EDGES)
def test_written_file_is_text_at_block_edges(count, tmp_path):
    trace = trace_of(count)
    path = tmp_path / "run.trace"
    trace.write(path)
    assert path.read_bytes() == trace.text().encode()


def test_digest_is_sha256_of_text_on_a_baseline_run():
    sc = parse_scenario(BASELINE.read_text(), "baseline")
    trace = run_scenario(sc, with_trace=True).trace
    assert len(trace.lines) > DIGEST_BLOCK
    assert trace.digest() == hashlib.sha256(trace.text().encode()).hexdigest()

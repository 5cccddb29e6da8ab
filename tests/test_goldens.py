"""The golden harness itself: its kernel record and its reports."""
from types import SimpleNamespace

import goldens
import pytest


def test_the_kernel_record_has_the_fields_kernel_reads():
    assert list(goldens.load("golden_kernel.json")) == list(goldens.kernel())
    assert goldens.kernel_lines().startswith("golden kernel: numpy ")


def test_a_missing_openblas_library_or_symbol_reads_unknown(monkeypatch):
    monkeypatch.setattr(goldens.ctypes, "CDLL", lambda path: SimpleNamespace())
    assert goldens.kernel()["openblas_core"] == "unknown"
    monkeypatch.setattr(goldens.ctypes, "CDLL", lambda path: open(path + "/missing"))
    assert goldens.kernel()["openblas_core"] == "unknown"


def _failure(check, *args) -> list:
    with pytest.raises(AssertionError) as failed:
        check(*args)
    lines = str(failed.value).splitlines()
    assert lines[0].startswith("golden kernel: ") and lines[1].startswith("this kernel: ")
    assert lines[:2] == goldens.kernel_lines().splitlines()
    return lines[2:]


def test_a_moved_chunk_names_both_kernels_then_lists_its_inputs():
    outcomes = [("ok", f"digest {i}") for i in range(2 * goldens.CHUNK)]
    want = goldens.chunk_sha256(outcomes)
    report = "input {} -> {}".format
    goldens.check_chunks("fake", want, outcomes, lambda i: report(i, outcomes[i]))
    want[1] = goldens.sha("another outcome")
    lines = _failure(goldens.check_chunks, "fake", want, outcomes,
                     lambda i: report(i, outcomes[i]))
    assert lines == ["fake chunk 1 moved:"] + [
        report(i, outcomes[i]) for i in range(goldens.CHUNK, 2 * goldens.CHUNK)]


def test_a_moved_value_names_both_kernels_first():
    goldens.same({"a": 1}, {"a": 1}, "the value")
    assert _failure(goldens.same, {"a": 2}, {"a": 1}, "the value") == [
        "the value moved: {'a': 2} != pinned {'a': 1}"]

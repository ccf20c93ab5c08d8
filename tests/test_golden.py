"""Every case of the golden corpus reproduces its stored output.

The corpus (``tests/golden/corpus.json``, written by
``tests/golden/generate.py``) pins the outputs of every solver, evaluator and
CLI subcommand on seeded problems with n <= 8.  A refactor must leave them
unchanged: numbers to 1e-12 relative, verdicts, flags, reasons, warnings,
messages and keys exactly.  An intended change rewrites the corpus and names
the records it changed in CHANGES.md.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "golden"))
import generate  # noqa: E402

CASES = {case["id"]: case for case in generate.load()}


@pytest.mark.parametrize("case_id", list(CASES))
def test_golden_case_reproduces(case_id):
    case = CASES[case_id]
    diff = generate.mismatches(generate.evaluate(case["call"], case["args"]), case["out"])
    assert not diff, diff[:5]


def test_corpus_covers_every_call():
    calls = {case["call"] for case in CASES.values()}
    assert calls == {
        "map_min", "map_two_sided", "map_characterize", "dsm_solve", "dsm_characterize",
        "dsm_characterize_type2", "dsdm_type1", "dsdm_type1_vec", "dsdm_type2",
        "jordan_lie_reduce", "eta_s", "eta_sd", "gen_pencil", "gen_eigpair", "cli",
        "oracle_least_norm", "oracle_min_structured", "oracle_eta",
    }
    cli = [case for case in CASES.values() if case["call"] == "cli"]
    assert {case["args"]["argv"][0] for case in cli} == {"map", "backerr", "verify"}
    solved = [case["out"] for case in cli if case["args"]["argv"][0] == "map" and case["out"]["doc"]]
    assert {out["doc"]["kind"] for out in solved} == {"map-min", "map-two-sided", "dsdm-type1", "dsdm-type2", "dsm"}
    assert {out["code"] for out in solved} == {0, 2}  # feasible and infeasible


def test_comparison_rejects_a_changed_number_and_a_changed_reason():
    case = CASES["dsm_solve/psd/n3m2/generic"]
    out = generate.evaluate(case["call"], case["args"])
    out["norm_upper"] *= 1 + 1e-11
    assert generate.mismatches(out, case["out"])
    case = CASES["dsm_solve/psd/infeasible"]
    out = generate.evaluate(case["call"], case["args"])
    out["reason"] += " "
    assert generate.mismatches(out, case["out"])


@pytest.mark.parametrize("case_id", list(generate.VERIFY_SOURCES))
def test_verify_inputs_are_the_stored_outputs_of_their_sources(case_id):
    # a verify case re-checks what its source case prints: a stale copy would re-check an old document
    source = CASES[generate.VERIFY_SOURCES[case_id]]
    assert source["args"]["argv"][0] in ("map", "backerr") and source["out"]["code"] == 0
    assert CASES[case_id]["args"]["files"]["result"] == generate.verify_input(case_id, source["out"])


def test_rewrite_takes_verify_inputs_from_their_sources_now():
    # a stored verify input that is stale (printed by an older program) is replaced by what its source
    # prints now, and the case is listed; kept, it would store verify's rejection as the expected output
    stored = json.loads(json.dumps(generate.load()))
    verify = next(case for case in stored if case["id"] == "cli/verify/backerr")
    verify["args"]["files"]["result"]["bounds"]["eta_upper"] *= 1.1
    assert generate.evaluate(verify["call"], verify["args"])["code"] != 0
    corpus, changed = generate.build(stored)
    assert changed == ["cli/verify/backerr"]
    assert next(case for case in corpus if case["id"] == "cli/verify/backerr") == CASES["cli/verify/backerr"]

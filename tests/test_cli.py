import json
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qseidel import neighborhoods, perms
from qseidel.cli import dumps_json, main, render_terms_text


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestDegree:
    def test_text(self, capsys):
        code, out, err = run(
            ["degree", "--n", "9", "--k", "4", "--lambda", "5,4,3,1", "--root", "5"],
            capsys,
        )
        assert (code, out, err) == (0, "2\n", "")

    def test_json(self, capsys):
        code, out, _ = run(
            [
                "degree", "--n", "9", "--k", "4", "--lambda", "5,4,3,1",
                "--root", "5", "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["d"] == 2 and obj["beta"] == 5 and obj["dualized"] is False

    def test_dual_route(self, capsys):
        code, out, _ = run(
            [
                "degree", "--n", "9", "--k", "5", "--lambda", "4,3,3,2,1",
                "--root", "4", "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["d"] == 2 and obj["beta"] == 5 and obj["dualized"] is True

    def test_identity_root(self, capsys):
        code, out, _ = run(
            ["degree", "--n", "4", "--k", "2", "--lambda", "2,2", "--root", "0"],
            capsys,
        )
        assert (code, out) == (0, "0\n")

    def test_out_of_box_rejected(self, capsys):
        code, _, err = run(
            ["degree", "--n", "4", "--k", "2", "--lambda", "3", "--root", "2"],
            capsys,
        )
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize(
        "n,k,root", [("4", "0", "0"), ("4", "7", "0"), ("40", "4", "5")]
    )
    def test_rank_rejected(self, capsys, n, k, root):
        code, out, err = run(
            ["degree", "--n", n, "--k", k, "--lambda", "", "--root", root],
            capsys,
        )
        assert (code, out) == (2, "") and err.startswith("error:")


class TestProduct:
    def test_text_single_term(self, capsys):
        code, out, _ = run(
            ["product", "--n", "2", "--k", "1", "--lhs", "1", "--rhs", "1"], capsys
        )
        assert (code, out) == (0, "q^1 * [()] x1\n")

    def test_text_two_terms(self, capsys):
        code, out, _ = run(
            ["product", "--n", "4", "--k", "2", "--lhs", "2,1", "--rhs", "1"], capsys
        )
        assert code == 0
        assert out == "q^1 * [()] x1\nq^0 * [(2,2)] x1\n"

    def test_empty_partition_unit(self, capsys):
        code, out, _ = run(
            ["product", "--n", "4", "--k", "2", "--lhs", "", "--rhs", "2,1"], capsys
        )
        assert (code, out) == (0, "q^0 * [(2,1)] x1\n")

    def test_json(self, capsys):
        code, out, _ = run(
            [
                "product", "--n", "5", "--k", "2", "--lhs", "2,1", "--rhs", "2,1",
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["terms"] == [
            {"coeff": 1, "partition": "1", "q": 1},
            {"coeff": 1, "partition": "3,3", "q": 0},
        ]

    def test_zero_class_renders_zero(self):
        assert render_terms_text([]) == "0\n"


class TestNeighborhood:
    def test_text(self, capsys):
        code, out, _ = run(
            [
                "neighborhood", "--n", "4", "--k", "2", "--d", "1",
                "--lambda-b", "", "--mu", "1",
            ],
            capsys,
        )
        assert code == 0
        assert out == "1,2\n1,3\n1,4\n2,3\n2,4\n"
        assert "3,4" not in out.splitlines()

    def test_json(self, capsys):
        code, out, _ = run(
            [
                "neighborhood", "--n", "4", "--k", "2", "--d", "0",
                "--lambda-b", "2,2", "--mu", "1", "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["gamma"] == ["1,3", "1,4", "2,3", "2,4", "3,4"]

    def test_degree_out_of_range(self, capsys):
        code, _, err = run(
            [
                "neighborhood", "--n", "4", "--k", "2", "--d", "3",
                "--lambda-b", "", "--mu", "1",
            ],
            capsys,
        )
        assert code == 2 and "error:" in err


class TestJoin:
    def test_text(self, capsys):
        code, out, _ = run(
            [
                "join", "--n", "4", "--w", "3,4,2,1",
                "--roots-y", "2,3", "--roots-z", "1,2",
            ],
            capsys,
        )
        assert (code, out) == (0, "3,2,4,1\n")

    def test_json(self, capsys):
        code, out, _ = run(
            [
                "join", "--n", "4", "--w", "3,4,2,1",
                "--roots-y", "2,3", "--roots-z", "1,2", "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["u_y"] == "3,1,2,4"
        assert obj["u_z"] == "2,3,4,1"
        assert obj["roots_meet"] == "2"
        assert obj["join"] == "3,2,4,1"

    def test_answers_above_the_rank_cap(self, capsys):
        # join reads permutations only, so MAX_RANK = 16 does not bound it
        w = ",".join(map(str, range(1, 18)))
        code, out, err = run(
            ["join", "--n", "17", "--w", w, "--roots-y", "1", "--roots-z", "2"], capsys
        )
        assert (code, out, err) == (0, w + "\n", "")

    def test_no_join_rendering(self, capsys, monkeypatch):
        monkeypatch.setattr("qseidel.perms.join", lambda *a, **k: None)
        code, out, _ = run(
            [
                "join", "--n", "3", "--w", "2,1,3",
                "--roots-y", "2", "--roots-z", "1",
            ],
            capsys,
        )
        assert (code, out) == (0, "NoJoin\n")

    def test_no_join_json_null(self, capsys, monkeypatch):
        monkeypatch.setattr("qseidel.perms.join", lambda *a, **k: None)
        code, out, _ = run(
            [
                "join", "--n", "3", "--w", "2,1,3",
                "--roots-y", "2", "--roots-z", "1", "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["join"] is None

    def test_rank_mismatch(self, capsys):
        code, _, err = run(
            ["join", "--n", "4", "--w", "2,1,3", "--roots-y", "1", "--roots-z", "1"],
            capsys,
        )
        assert code == 2 and err.startswith("error:")

    def test_rank_12_answer_without_the_quotient(self, capsys, monkeypatch):
        # S_12 has 12! elements; the join is built without enumerating any
        def no_scan(*args):
            raise AssertionError("the quotient was enumerated")

        monkeypatch.setattr(perms, "parabolic_quotient", no_scan)
        code, out, _ = run(
            [
                "join", "--n", "12", "--w", "3,2,1,4,5,6,7,8,9,10,11,12",
                "--roots-y", "1", "--roots-z", "2",
            ],
            capsys,
        )
        assert (code, out) == (0, "3,2,1,4,5,6,7,8,9,10,11,12\n")


class TestVerify:
    def test_single_case_text(self, capsys):
        code, out, _ = run(
            ["verify", "--n", "4", "--k", "2", "--root", "2", "--u", "1,3,2,4"],
            capsys,
        )
        assert code == 0
        first = out.splitlines()[0]
        assert first == (
            "case n=4 k=2 i=2 u=1,3,2,4 beta=2 dualized=false d=1 pass=true"
        )
        assert "fp_equality=true" in out

    def test_single_case_csv(self, capsys):
        code, out, _ = run(
            [
                "verify", "--n", "4", "--k", "2", "--root", "2",
                "--u", "1,3,2,4", "--format", "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n,k,i,u,beta,dualized,d,pass,fp_equality")
        assert lines[1] == '4,2,2,"1,3,2,4",2,false,1,true,true,true,true,true,true'

    def test_sweep_text(self, capsys):
        code, out, _ = run(["verify", "--n-max", "2"], capsys)
        assert code == 0
        assert out == "sweep n_max=2 mode=exhaustive cases=4 pass=4 fail=0\n"

    def test_sweep_sampled_text_mentions_seed(self, capsys):
        code, out, _ = run(
            ["verify", "--n-max", "3", "--mode", "sampled", "--sample-size", "6"],
            capsys,
        )
        assert code == 0
        assert out == (
            "sweep n_max=3 mode=sampled sample_size=6 seed=0 cases=6 pass=6 fail=0\n"
        )

    def test_sweep_json_round_trips(self, capsys):
        code, out, _ = run(["verify", "--n-max", "3", "--format", "json"], capsys)
        assert code == 0
        assert dumps_json(json.loads(out)) == out
        obj = json.loads(out)
        assert obj["total"] == 22 and obj["fail"] == 0

    def test_sweep_csv_shape(self, capsys):
        code, out, _ = run(["verify", "--n-max", "2", "--format", "csv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert all(line.endswith("true") for line in lines[1:])

    def test_jobs_do_not_change_bytes(self, capsys):
        _, serial, _ = run(["verify", "--n-max", "3", "--format", "json"], capsys)
        _, parallel, _ = run(
            ["verify", "--n-max", "3", "--format", "json", "--jobs", "2"], capsys
        )
        assert serial == parallel

    def test_failure_exit_code_and_detail(self, capsys, monkeypatch):
        real = neighborhoods.gamma_fp

        # the case's neighborhood loses one fixed point
        def broken(*args):
            return frozenset(sorted(real(*args))[1:])

        monkeypatch.setattr(neighborhoods, "gamma_fp", broken)
        code, out, _ = run(
            ["verify", "--n", "4", "--k", "2", "--root", "2", "--u", "1,3,2,4"],
            capsys,
        )
        assert code == 1
        assert "pass=false" in out
        assert "gamma_minus_target" in out

    def test_sweep_text_lists_failing_case(self, capsys, monkeypatch):
        real_case, real_frame = neighborhoods.verify_case, neighborhoods._frame_checks
        case = None

        def tracking(*args):
            nonlocal case
            case = args
            return real_case(*args)

        # The dual case shares its frame checks with its twin (3, 1, 2, (2, 1, 3)),
        # verified just before it, so the fault goes in where verify_case reads
        # them.  A list is never equal to the tuple partition it spells, so
        # v_match fails.
        def broken(*frame):
            gamma, contained, v = real_frame(*frame)
            return gamma, contained, list(v) if case == (3, 2, 1, (1, 3, 2)) else v

        monkeypatch.setattr(neighborhoods, "verify_case", tracking)
        monkeypatch.setattr(neighborhoods, "_frame_checks", broken)
        code, out, _ = run(["verify", "--n-max", "3"], capsys)
        assert code == 1
        assert out == (
            "case n=3 k=2 i=1 u=1,3,2 beta=2 dualized=true d=0 pass=false\n"
            "  checks fp_equality=true g_chain_containment=true length_identity=true"
            " product_single_term=true v_match=false\n"
            "  gamma: 1,3\n"
            "  target: 1,3\n"
            "  gamma_minus_target: -\n"
            "  target_minus_gamma: -\n"
            "  v_partition=2 target_partition=1,1 length_v=2 length_target=2\n"
            "  product: q^0 * [(2)] x1\n"
            "sweep n_max=3 mode=exhaustive cases=22 pass=21 fail=1\n"
        )

    def test_single_case_json(self, capsys):
        code, out, _ = run(
            [
                "verify", "--n", "4", "--k", "2", "--root", "2",
                "--u", "1,3,2,4", "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        assert out == dumps_json(neighborhoods.verify_case(4, 2, 2, (1, 3, 2, 4)))

    def test_conflicting_selection(self, capsys):
        code, _, err = run(
            ["verify", "--n-max", "3", "--n", "4", "--k", "2", "--root", "1", "--u", "1,2,3,4"],
            capsys,
        )
        assert code == 2 and err.startswith("error:")

    def test_incomplete_single_case(self, capsys):
        code, _, err = run(["verify", "--n", "4"], capsys)
        assert code == 2 and "single case" in err

    def test_no_selection(self, capsys):
        code, _, err = run(["verify"], capsys)
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize(
        "extra",
        [
            ["--mode", "sampled"],
            ["--sample-size", "3"],
            ["--seed", "1"],
            ["--jobs", "2"],
        ],
    )
    def test_sweep_options_on_single_case(self, capsys, extra):
        code, out, err = run(
            ["verify", "--n", "4", "--k", "2", "--root", "2", "--u", "1,3,2,4", *extra],
            capsys,
        )
        assert (code, out) == (2, "") and "--n-max" in err

    @pytest.mark.parametrize("extra", [["--seed", "1"], ["--sample-size", "3"]])
    def test_sampling_options_in_exhaustive_mode(self, capsys, extra):
        code, out, err = run(["verify", "--n-max", "3", *extra], capsys)
        assert (code, out) == (2, "") and "sampled mode" in err

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_sample_size_below_one(self, capsys, size):
        code, out, err = run(
            ["verify", "--n-max", "3", "--mode", "sampled", "--sample-size", size],
            capsys,
        )
        assert (code, out) == (2, "") and "sample_size >= 1" in err

    @pytest.mark.parametrize("extra", [[], ["--mode", "sampled", "--sample-size", "1"]])
    def test_n_max_above_rank_cap(self, capsys, extra):
        code, out, err = run(["verify", "--n-max", "17", *extra], capsys)
        assert (code, out) == (2, "") and "rank cap" in err

    def test_malformed_permutation(self, capsys):
        code, _, err = run(
            ["verify", "--n", "4", "--k", "2", "--root", "2", "--u", "1,1,2,3"],
            capsys,
        )
        assert code == 2 and err.startswith("error:")


# Bytes captured from the output of each command before the front end
# rendered every format from one record; any change to them is a change of
# the report format, not a refactor.
PINNED_OUTPUTS = [
    pytest.param(
        ["product", "--n", "5", "--k", "2", "--lhs", "2,1", "--rhs", "2,1", "--format", "json"],
        '{\n  "k": 2,\n  "lhs": "2,1",\n  "n": 5,\n  "rhs": "2,1",\n  "terms": [\n'
        '    {\n      "coeff": 1,\n      "partition": "1",\n      "q": 1\n    },\n'
        '    {\n      "coeff": 1,\n      "partition": "3,3",\n      "q": 0\n    }\n  ]\n}\n',
        id="product-json",
    ),
    pytest.param(
        ["degree", "--n", "9", "--k", "5", "--lambda", "4,3,3,2,1", "--root", "4", "--format", "json"],
        '{\n  "beta": 5,\n  "d": 2,\n  "dualized": true,\n  "k": 5,\n'
        '  "lambda": "4,3,3,2,1",\n  "n": 9,\n  "root": 4\n}\n',
        id="degree-json",
    ),
    pytest.param(
        ["neighborhood", "--n", "4", "--k", "2", "--d", "1", "--lambda-b", "", "--mu", "1",
         "--format", "json"],
        '{\n  "d": 1,\n  "gamma": [\n    "1,2",\n    "1,3",\n    "1,4",\n    "2,3",\n'
        '    "2,4"\n  ],\n  "k": 2,\n  "lambda_b": "",\n  "mu": "1",\n  "n": 4\n}\n',
        id="neighborhood-json",
    ),
    pytest.param(
        ["join", "--n", "4", "--w", "3,4,2,1", "--roots-y", "2,3", "--roots-z", "1,2",
         "--format", "json"],
        '{\n  "join": "3,2,4,1",\n  "n": 4,\n  "roots_meet": "2",\n  "roots_y": "2,3",\n'
        '  "roots_z": "1,2",\n  "u_y": "3,1,2,4",\n  "u_z": "2,3,4,1",\n  "w": "3,4,2,1"\n}\n',
        id="join-json",
    ),
    pytest.param(
        ["verify", "--n", "4", "--k", "2", "--root", "2", "--u", "1,3,2,4", "--format", "json"],
        '{\n  "beta": 2,\n  "checks": {\n    "fp_equality": true,\n'
        '    "g_chain_containment": true,\n    "length_identity": true,\n'
        '    "product_single_term": true,\n    "v_match": true\n  },\n  "d": 1,\n'
        '  "dualized": false,\n  "i": 2,\n  "k": 2,\n  "n": 4,\n  "pass": true,\n'
        '  "u": "1,3,2,4"\n}\n',
        id="verify-case-json",
    ),
    pytest.param(
        ["verify", "--n", "4", "--k", "2", "--root", "2", "--u", "1,3,2,4"],
        "case n=4 k=2 i=2 u=1,3,2,4 beta=2 dualized=false d=1 pass=true\n"
        "  checks fp_equality=true g_chain_containment=true length_identity=true"
        " product_single_term=true v_match=true\n",
        id="verify-case-text",
    ),
    pytest.param(
        ["verify", "--n-max", "6", "--mode", "sampled", "--sample-size", "5", "--seed", "3"],
        "sweep n_max=6 mode=sampled sample_size=5 seed=3 cases=5 pass=5 fail=0\n",
        id="verify-sampled-text",
    ),
]


@pytest.mark.parametrize("argv,expected", PINNED_OUTPUTS)
def test_pinned_output_bytes(capsys, argv, expected):
    assert run(argv, capsys) == (0, expected, "")


def one_shot_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def chunk_count(obj) -> int:
    return sum(1 for _ in json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
)


class TestDumpsJson:
    """``dumps_json`` joins the encoder's chunks in batches of 8,192; its
    bytes must be those of one ``json.dumps`` call."""

    @given(JSON_VALUES)
    def test_same_bytes_as_json_dumps(self, obj):
        assert dumps_json(obj) == one_shot_json(obj)

    # a list of m integers is m + 2 chunks: one per item, the closing
    # newline and the bracket
    @pytest.mark.parametrize(
        "obj,chunks",
        [
            ({}, 1),
            ([], 1),
            (list(range(8189)), 8191),
            (list(range(8190)), 8192),
            (list(range(8191)), 8193),
            (list(range(3 * 8192)), 3 * 8192 + 2),
            ({f"key{j}": [j, None, True, "x" * (j % 7)] for j in range(6000)}, 54003),
        ],
        ids=["empty-dict", "empty-list", "one-short", "one-batch", "one-over", "three-batches",
             "nested"],
    )
    def test_batch_boundaries(self, obj, chunks):
        assert chunk_count(obj) == chunks
        assert dumps_json(obj) == one_shot_json(obj)

    def test_failing_sweep_record(self, monkeypatch):
        real = neighborhoods.gamma_fp

        # each neighborhood loses one fixed point, so failing records carry their detail
        def broken(*args):
            return frozenset(sorted(real(*args))[1:])

        monkeypatch.setattr(neighborhoods, "gamma_fp", broken)
        rec = neighborhoods.sweep(5).record()
        assert rec["fail"] > 0
        assert any("counterexample_detail" in case for case in rec["cases"])
        assert dumps_json(rec) == one_shot_json(rec)


class TestParser:
    def test_unknown_command_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
        capsys.readouterr()

    def test_missing_required_option_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["product", "--n", "4"])
        capsys.readouterr()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "qseidel.cli",
                "degree", "--n", "9", "--k", "4", "--lambda", "5,4,3,1", "--root", "5",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "2\n"

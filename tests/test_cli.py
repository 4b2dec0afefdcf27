import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadorbit
from quadorbit import cli
from quadorbit.cli import _parse_big, main
from quadorbit.density import density_profile


def test_parse_big():
    assert _parse_big("123") == 123
    assert _parse_big("1e100") == 10 ** 100
    assert _parse_big("10^50") == 10 ** 50
    assert _parse_big("2.5e3") == 2500
    with pytest.raises(ValueError):
        _parse_big("2.5e0")


def test_seq_output(capsys):
    assert main(["seq", "--c", "2", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "a_4(2) = 417" in out
    assert "417/256" in out


def test_seq_domain_rejection(capsys):
    assert main(["seq", "--c", "-1", "--n", "3"]) == 2
    assert main(["seq", "--c", "0", "--n", "3"]) == 2


def test_seq_json(capsys):
    assert main(["seq", "--c", "3", "--n", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["a_n"] == "4"
    assert data["half_sum_class"] == "rational_nonsquare"


def test_classify_single(capsys):
    assert main(["classify", "--c", "-16"]) == 0
    assert "case 2" in capsys.readouterr().out
    assert main(["classify", "--c", "48", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["case"] == 6 and data["status"] == "VERIFIED"


def test_classify_usage(capsys):
    assert main(["classify"]) == 2
    assert main(["classify", "--c", "5", "--range=1..2"]) == 2


def test_classify_range(capsys):
    assert main(["classify", "--range=-40..40", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 79  # 81 minus {0, -1}
    assert all(r["status"] == "VERIFIED" for r in data)


def test_classify_jobs_deterministic(capsys):
    assert main(["classify", "--range=-25..25", "--json"]) == 0
    seq_out = capsys.readouterr().out
    assert main(["classify", "--range=-25..25", "--jobs", "2", "--json"]) == 0
    par_out = capsys.readouterr().out
    assert seq_out == par_out


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("3: 1 2")
    rc = main(["table1", "--regen"])
    out = capsys.readouterr().out
    assert rc == 1  # known classified discrepancies against the static table
    assert "discrepancies" in out


def test_curves_cli(capsys):
    assert main(["curves", "--id", "E92", "--height", "1000", "--json"]) == 0
    data = json.loads(capsys.readouterr().out.splitlines()[0])
    assert data["x_values"] == [-1, 0, 1, 3, 5, 56]


def test_density_cli(tmp_path, capsys):
    csv_path = tmp_path / "density.csv"
    assert main(["density", "--c", "2", "--t", "0", "--bound", "2000",
                 "--csv", str(csv_path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["invariant_violations"] == []
    assert csv_path.read_text().startswith("bound,")


def test_density_cli_index_0_division_and_degenerate_c(capsys):
    # 7 divides t = 7/2 at index 0, which the residue invariant does not cover
    assert main(["density", "--c", "2", "--t", "7/2", "--bound", "100"]) == 0
    assert "invariant violations: 0" in capsys.readouterr().out
    for c in ("0", "-1"):
        assert main(["density", "--c", c, "--bound", "100"]) == 2
        assert "c must avoid 0 and -1" in capsys.readouterr().err


def test_density_cli_prints_the_routes_on_one_line(capsys):
    assert main(["density", "--c", "904", "--t", "0", "--bound", "10000"]) == 0
    routes = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("routes:")]
    prof = density_profile(904, 0, 10 ** 4)
    assert routes == [f"routes: {prof.by_tree} primes by the preimage tree, "
                      f"{prof.by_walk} by the walk, {prof.audited} tree decisions "
                      f"audited by a walk"]
    assert prof.by_tree + prof.by_walk == prof.checkpoints[-1].primes


def test_density_cli_zero_denominator_and_integer_orbit_of_c_1(capsys):
    assert main(["density", "--c", "2", "--t", "1/0", "--bound", "100"]) == 2
    assert "zero denominator" in capsys.readouterr().err
    # the orbit of 1 under x^2 + 1 stays in Z: it must end, not square on
    assert main(["density", "--c", "1", "--t", "1", "--bound", "100"]) == 0
    assert "invariant violations: 0" in capsys.readouterr().out


def test_stab_verify_cli(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    assert main(["stab-verify", "--x", "1e6", "--emit-trace",
                 "--out", str(out_path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["x_bound"] == str(10 ** 6)
    assert all(isinstance(e["required_bound"], str) for e in data["entries"])
    stored = json.loads(out_path.read_text())
    assert stored["entries"] == data["entries"]
    traced = [e for e in stored["entries"] if "trace" in e]
    assert traced, "emit-trace must include full traces"
    tr = traced[0]["trace"][0]
    assert set(tr) == {"n", "b0_in", "doublings", "points", "b0_out"}
    assert len(tr["points"]) == 4


def test_json_outputs_validate_against_schemas(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    from importlib import resources

    def load(name):
        text = resources.files("quadorbit.data").joinpath(f"schemas/{name}").read_text()
        return json.loads(text)

    assert main(["classify", "--c", "48", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, load("report.schema.json"))

    assert main(["stab-verify", "--x", "1e9", "--json"]) == 0
    cert = json.loads(capsys.readouterr().out)
    jsonschema.validate(cert, load("stab_certificate.schema.json"))


def test_golden_output_digests(capsys):
    # byte identity of emitted certificates: a change to any of these digests
    # changes certificate content and must be declared
    def digest(argv, drop_elapsed=False):
        main(argv)
        out = capsys.readouterr().out
        if drop_elapsed:
            payload = json.loads(out)
            del payload["elapsed_seconds"]
            out = json.dumps(payload) + "\n"
        return hashlib.sha256(out.encode()).hexdigest()

    assert digest(["classify", "--range=-500..500", "--json"]) == \
        "d6ef7d5f6f51b6568fa80c1322e48cb7f962f713ff5316e24eebc25ea4bc535e"
    assert digest(["table1", "--regen"]) == \
        "0e8b938e045d9cb1c34a29d6878c72f4be84f849fcd9eb0eae797f5178ca46fe"
    assert digest(["stab-verify", "--x", "1e60", "--emit-trace", "--json"], True) == \
        "d73b2302ee23531a657d96e8494c4c03c3b089b04dc01001f67d89418f56e66f"


def test_density_and_table_regeneration_digests(capsys):
    # byte identity of the orbit-mod-p outputs: the density walk and the
    # table regeneration's non-residue lookups must not move a byte
    def digest(argv, code=0):
        assert main(argv) == code
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    assert digest(["density", "--c", "904", "--t", "0", "--bound", "300000", "--json"]) == \
        "d75e36592a6b29476c1bd8915b06830ffc42ac1117fb7c33ae7e31264cd6b0a5"
    assert digest(["density", "--c", "-7", "--t", "1/2", "--bound", "100000", "--json"]) == \
        "df0010c862f3e19f5bbc4a5d13546cbea5e0bdd36e1c0b1e60acc1cf740cef6f"
    assert digest(["density", "--c", "2", "--t", "7/2", "--bound", "100000", "--json"]) == \
        "216edb0a85df484d31e99085caea126ed1fc9783a183848d23c2744392cba6e4"
    # exit 1: the regenerated table differs from the published one by design
    assert digest(["table1", "--regen", "--bound", "200"], code=1) == \
        "90c75d4c5790b986b54e14499fff9187d5f6721f561f33ba49096ed2b59db09d"


def test_stab_verify_worker_pool_prints_the_same_bytes(capsys):
    # --jobs 2 farms the primes out to a process pool; the certificate is
    # ordered by prime whatever order the workers finish in
    def printed(jobs):
        assert main(["stab-verify", "--x", "1e100", "--jobs", jobs,
                     "--emit-trace", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        del payload["elapsed_seconds"]
        return json.dumps(payload) + "\n"

    pooled = printed("2")
    assert pooled == printed("1")
    assert hashlib.sha256(pooled.encode()).hexdigest() == \
        "6d09c2dd51bf43850b12487b0f32cd91e04da0722078306ea1408fba522bff83"


def test_stab_verify_1e300_trace_digest(capsys):
    # byte identity of the certificate the stab_e300 benchmark workload's
    # scale produces, every trace included
    assert main(["stab-verify", "--x", "1e300", "--emit-trace", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    del payload["elapsed_seconds"]
    assert hashlib.sha256((json.dumps(payload) + "\n").encode()).hexdigest() == \
        "d562fe02b25afa22c8fbc7f23080da2308cb3f3a2ff945264238308bef7474fd"


def test_trace_json_past_the_int_digit_limit(capsys):
    # certificate integers at 1e350 pass 640 digits, the least limit Python
    # allows, as those at 1e1000 pass the default 4300: writing them must not
    # depend on the interpreter's limit
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit before Python 3.11")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert main(["stab-verify", "--x", "1e350", "--emit-trace", "--json"]) == 0
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(old)
    payload = json.loads(capsys.readouterr().out)
    del payload["elapsed_seconds"]
    assert max(len(e["c_bound"]) for e in payload["entries"] if "c_bound" in e) > 640
    assert hashlib.sha256((json.dumps(payload) + "\n").encode()).hexdigest() == \
        "4159be2ea7cca33057c7201c14ed4321eda647dd2c774c22a4c6d2f0177b1b5f"


def test_outputs_past_the_int_digit_limit(capsys, monkeypatch):
    # a_15(3) has over 20000 digits, and the report of c = -(10^1500 + 3)^2
    # holds (m^3 - m^2 + 1)/m^4 at over 6000; each is computed in well under
    # a second, and printing it must not depend on the interpreter's limit,
    # which main restores on every exit
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit before Python 3.11")
    limit = sys.get_int_max_str_digits()
    assert main(["seq", "--c", "3", "--n", "15"]) == 0
    assert len(capsys.readouterr().out) > 20000
    assert sys.get_int_max_str_digits() == limit
    m = 10 ** 1500 + 3
    assert main(["classify", f"--c={-m * m}"]) == 0
    assert capsys.readouterr().out.endswith(", k = (2, 2, 2, ... 2), VERIFIED\n")
    assert sys.get_int_max_str_digits() == limit
    assert main(["classify", f"--c={-m * m}", "--json"]) == 0
    assert '"case": 1' in capsys.readouterr().out
    for argv in (["classify"], ["seq", "--c", "0", "--n", "3"]):
        assert main(argv) == 2
        assert sys.get_int_max_str_digits() == limit

    def crash(args):
        raise RuntimeError("crash")
    monkeypatch.setattr(cli, "cmd_seq", crash)
    with pytest.raises(RuntimeError):
        main(["seq", "--c", "3", "--n", "2"])
    assert sys.get_int_max_str_digits() == limit


_NO_MPMATH = """
import hashlib, io, json, sys
from contextlib import redirect_stdout
sys.modules["mpmath"] = None
from quadorbit.cli import main
from quadorbit.classify import recheck_report, verify_classification
out = io.StringIO()
with redirect_stdout(out):
    assert main(["stab-verify", "--x", "1e60", "--emit-trace", "--json"]) == 0
payload = json.loads(out.getvalue())
del payload["elapsed_seconds"]
print(hashlib.sha256((json.dumps(payload) + "\\n").encode()).hexdigest())
for c in (-25, -16, -9, -64, 288, 48, 5, 10 ** 6 + 1):
    rep = verify_classification(c)
    assert rep.verified, c
    recheck_report(rep)
print("classified")
"""


def _python(script):
    env = dict(os.environ, PYTHONPATH=str(Path(quadorbit.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=600)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


def test_no_runtime_dependency_on_mpmath():
    # with mpmath unimportable, the 1e60 certificate keeps its pinned digest,
    # and one c of each case classifies and rechecks
    assert _python(_NO_MPMATH) == [
        "d73b2302ee23531a657d96e8494c4c03c3b089b04dc01001f67d89418f56e66f", "classified"]
    assert _python("import sys, quadorbit.cli; print('mpmath' in sys.modules)") == ["False"]


_SPAWNED_POOL = """
import multiprocessing
multiprocessing.set_start_method("spawn")
from quadorbit.cli import main
m = 10 ** 1500 + 3
raise SystemExit(main(["classify", f"--c={-m * m}", "--jobs", "2"]))
"""


def test_classify_pool_past_the_int_digit_limit_under_spawn():
    # a spawned worker starts with the interpreter's digit limit, and its
    # report of c = -(10^1500 + 3)^2 holds integers past 6000 digits
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit before Python 3.11")
    assert _python(_SPAWNED_POOL)[-1] == "VERIFIED"


_WIDE_RANGE = """
import resource, time
# a 1 GiB address-space cap: a range built as a list dies of MemoryError
# rather than taking the host's memory
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from quadorbit.cli import main
m = 10 ** 1500 + 3
t0 = time.perf_counter()
code = main(["classify", f"--range={-m * m}..0", "--jobs", "2"])
print(code, time.perf_counter() - t0)
"""


def test_classify_rejects_a_range_wider_than_a_million_values(capsys):
    code, elapsed = _python(_WIDE_RANGE)
    assert code == "2" and float(elapsed) < 1
    assert main(["classify", "--range=-500000..500000"]) == 2
    assert "--range spans more than 10^6 values" in capsys.readouterr().err

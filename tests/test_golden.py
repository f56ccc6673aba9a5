"""Golden digests: a pure refactor must leave every run output byte-identical.

Fifteen small ``run_scenario`` runs (seed 5, n=200, 100 draws) cover every
scenario, every conditional-prior family on ``interval_censored``, families
II-IV on ``binary_missing`` and the worker-pool path.  The CSV SHA-256 values
were recorded before the scenario table and the shared attempt driver were
introduced; the ``summary.json`` digests were recorded before the per-mode
pipeline in ``run_scenario``.  The ``gamma_hist.csv`` and ``summary.json``
digests of the eight runs with a prior family were recorded again when the
gammas became one step on the run's interval batch, and every digest of the
six ``interval_censored`` runs when its two processes moved from two split
streams to consecutive uniforms of the attempt stream, and again when each
process drew its prior-side mean as one normal variate from its exact law in
place of K atoms, and every digest of the four ``binary_missing`` runs when
its interval [p1, p1 + p3] became two Beta draws in place of a three-cell
Dirichlet draw, and its ``intervals.csv`` and ``summary.json`` digests again
when those two Betas were drawn through a quantile table
(``distributions.BetaQuantile``, since replaced by the same table in
``distributions.beta_quantile``) in place of ``betaincinv`` (all deliberate
numeric changes); every other digest is as first recorded.  A change that
moves them on purpose must say so in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from partialid.cli import RunConfig, run_scenario

# (scenario, prior family, workers) -> SHA-256 of each CSV the run writes
GOLDEN = [
    (('toy_analytic', None, 1), {
        'coverage.csv': '28e2b0a92bed55cd3fbdbc7b8aca19a34f81944c56122e39dc0e6c42df5167fc',
        'intervals.csv': '6a5705cd13bde2d3bf067d4f22f3c8fee772ac7b749d32116a70d2151068e9e1',
    }),
    (('interval_censored', None, 1), {
        'coverage.csv': '829a1dabe13b5237c710e876a6b2c8c2f8b59c998c6682d2ca5d9dd35fa80f4d',
        'intervals.csv': '01cb1d0dfd3bd2e2c432a3bd43aaab6e129946489994c2188ee526eca8318a8e',
    }),
    (('errors_in_variables', None, 1), {
        'coverage.csv': '265106477f40630a6633b82a520a4dc7bab6311c6221fe86cd41c8feec564f75',
        'intervals.csv': '25197239bf58ed65838af6d034948f37626de42ccd4135929950746dcdecf882',
    }),
    (('interval_regression', None, 1), {
        'coverage.csv': 'c52c9408f3a15125240236c27653e520894d0708c89fdb9b6508d42d4a77a873',
        'intervals.csv': '11bd3fc128c0b40a047731c20c90572610c37413161f16a31ab3453986632519',
    }),
    (('binary_missing', None, 1), {
        'coverage.csv': '926f4c6b2c984d7389ab7a8319abe17db9fd7869d078aeb94151cf7886f698e2',
        'intervals.csv': 'be8a44663212262d847dac7f0804e42f15a22968a15d896db5f899b74b44dabc',
    }),
    (('interval_censored', 'I', 1), {
        'coverage.csv': '829a1dabe13b5237c710e876a6b2c8c2f8b59c998c6682d2ca5d9dd35fa80f4d',
        'gamma_hist.csv': 'f30299584b013d7f4233ebd2458f4ec1b8bf88d20af30fcd7be0f6d3181d44fd',
        'intervals.csv': '01cb1d0dfd3bd2e2c432a3bd43aaab6e129946489994c2188ee526eca8318a8e',
    }),
    (('interval_censored', 'II', 1), {
        'coverage.csv': '829a1dabe13b5237c710e876a6b2c8c2f8b59c998c6682d2ca5d9dd35fa80f4d',
        'gamma_hist.csv': '58b674d7f2190bc0a363527895adf766ae37c21690f224ae6fdf5c7c049f4d6f',
        'intervals.csv': '01cb1d0dfd3bd2e2c432a3bd43aaab6e129946489994c2188ee526eca8318a8e',
    }),
    (('interval_censored', 'III', 1), {
        'coverage.csv': '829a1dabe13b5237c710e876a6b2c8c2f8b59c998c6682d2ca5d9dd35fa80f4d',
        'gamma_hist.csv': 'b993d59dcc8d5378e90f8b2e51a151a90ca16c6e9363ba17e103f22399f06e44',
        'intervals.csv': '01cb1d0dfd3bd2e2c432a3bd43aaab6e129946489994c2188ee526eca8318a8e',
    }),
    (('interval_censored', 'IV', 1), {
        'coverage.csv': '829a1dabe13b5237c710e876a6b2c8c2f8b59c998c6682d2ca5d9dd35fa80f4d',
        'gamma_hist.csv': 'ae07b88fb1039e254262cbea2a903d65783bd621099cd6cc2d440a1ac78103dd',
        'intervals.csv': '01cb1d0dfd3bd2e2c432a3bd43aaab6e129946489994c2188ee526eca8318a8e',
    }),
    (('binary_missing', 'II', 1), {
        'coverage.csv': '926f4c6b2c984d7389ab7a8319abe17db9fd7869d078aeb94151cf7886f698e2',
        'gamma_hist.csv': '296c95756434ae8b8cc271228aee4a7c3fc40d9c5bb6cbb1cec1a72b1dbdcbd0',
        'intervals.csv': 'be8a44663212262d847dac7f0804e42f15a22968a15d896db5f899b74b44dabc',
    }),
    (('binary_missing', 'III', 1), {
        'coverage.csv': '926f4c6b2c984d7389ab7a8319abe17db9fd7869d078aeb94151cf7886f698e2',
        'gamma_hist.csv': '884804b5eb46ba1d9e13ad8f3149e07dcd3cbcb90974599a3b759a9255a2d418',
        'intervals.csv': 'be8a44663212262d847dac7f0804e42f15a22968a15d896db5f899b74b44dabc',
    }),
    (('binary_missing', 'IV', 1), {
        'coverage.csv': '926f4c6b2c984d7389ab7a8319abe17db9fd7869d078aeb94151cf7886f698e2',
        'gamma_hist.csv': 'b492187d392a0235fbf2898357cd7e228e36ec25f25d6faf227652210ddb81de',
        'intervals.csv': 'be8a44663212262d847dac7f0804e42f15a22968a15d896db5f899b74b44dabc',
    }),
    (('interval_censored', None, 2), {
        'coverage.csv': '829a1dabe13b5237c710e876a6b2c8c2f8b59c998c6682d2ca5d9dd35fa80f4d',
        'intervals.csv': '01cb1d0dfd3bd2e2c432a3bd43aaab6e129946489994c2188ee526eca8318a8e',
    }),
    (('interval_regression', None, 2), {
        'coverage.csv': 'c52c9408f3a15125240236c27653e520894d0708c89fdb9b6508d42d4a77a873',
        'intervals.csv': '11bd3fc128c0b40a047731c20c90572610c37413161f16a31ab3453986632519',
    }),
    (('errors_in_variables', 'II', 2), {
        'coverage.csv': '265106477f40630a6633b82a520a4dc7bab6311c6221fe86cd41c8feec564f75',
        'gamma_hist.csv': 'd50572e5760caf54382e663658cf4239c449772047276f1713ec15fc88178326',
        'intervals.csv': '25197239bf58ed65838af6d034948f37626de42ccd4135929950746dcdecf882',
    }),
]


# (scenario, prior family, workers) -> SHA-256 of the summary.json content,
# less the fields that vary by machine, serialized by json.dumps(sort_keys=True)
SUMMARY_GOLDEN = {
    ('toy_analytic', None, 1):
        '61b5f1455417b7ca9f3a45a1831011828f87feaa0b8a8ee2730fa280740f3570',
    ('interval_censored', None, 1):
        '133dc76ce6d132af24528452acfa76342506ea4ac2ae3dca252b737f2f0f33f6',
    ('errors_in_variables', None, 1):
        'a1e02ed02d645aa117ac3be7acfe49663bbcc2703dff074076130b008b867d0a',
    ('interval_regression', None, 1):
        '206ee5e2bf16dc4e5b55ac799381aba688946e6e0a8c62a2ba4311d2577bc802',
    ('binary_missing', None, 1):
        'd397b54f213fd24a15dd940066ed55a2994d96badcd3c9ef59905f13b661295d',
    ('interval_censored', 'I', 1):
        '3340b30a5242141f31060bc66ae69802b38b6b9b4221830ef6b5ff9deaeca7cf',
    ('interval_censored', 'II', 1):
        '84c82d4d6add3795e24f52505ae61347ac69cf8a11a2f954fbde2384c5be1e5d',
    ('interval_censored', 'III', 1):
        '2ea464850c4e4de00c589f51a9360f5d68fde19cec38a9db957f1bd633070bd5',
    ('interval_censored', 'IV', 1):
        '551880f1f9f85715fc5f9dcea304c29924b025dcc7271db2015b9c1c6038e386',
    ('binary_missing', 'II', 1):
        '4ede31a26a7f82ee6603e431ea6ee7008e4df4b74d4f7ab3ee6c851a2de2cace',
    ('binary_missing', 'III', 1):
        'ed3562e37f47f127e7a4c4f22394c591c2f66ec70de7987f5507bb81fe795107',
    ('binary_missing', 'IV', 1):
        '9bb44d8258d821d14b0e484c50e05988c4e50150f9a7228c50c963a5f949fd2f',
    ('interval_censored', None, 2):
        '5f6f85acdf967323a35d41ed2f4b6ceed82104324e68c6ef528c521338246639',
    ('interval_regression', None, 2):
        '8c7f224bb6e16d3796cdbf74698a45ee20659ad1da1d4828f314233668feb6af',
    ('errors_in_variables', 'II', 2):
        '256042261d5ab668e0fd69c394069de17b0884bb9e5bc550b5cdbd587fa909d1',
}

CASE_IDS = ["-".join(map(str, case)) for case, _ in GOLDEN]


def _run(case, out_dir):
    scenario, family, workers = case
    return run_scenario(RunConfig(
        scenario=scenario,
        n=None if scenario == "toy_analytic" else 200,
        n_draws=100,
        seed=5,
        prior_family=family,
        out_dir=str(out_dir),
        workers=workers,
    ))


@pytest.mark.parametrize("case, digests", GOLDEN, ids=CASE_IDS)
def test_csv_digests_unchanged(case, digests, tmp_path):
    assert _run(case, tmp_path).files == digests


@pytest.mark.parametrize("case", [case for case, _ in GOLDEN], ids=CASE_IDS)
def test_summary_digest_unchanged(case, tmp_path):
    report = _run(case, tmp_path)
    summary = json.loads((Path(report.out_dir) / "summary.json").read_text())
    # wall time, output path and library versions vary by machine
    del summary["wall_time_s"], summary["out_dir"], summary["diagnostics"]["versions"]
    text = json.dumps(summary, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SUMMARY_GOLDEN[case]

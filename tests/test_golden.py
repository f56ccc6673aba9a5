"""Golden digests: a pure refactor must leave every run output byte-identical.

Fifteen small ``run_scenario`` runs (seed 5, n=200, 100 draws) cover every
scenario, every conditional-prior family on ``interval_censored``, families
II-IV on ``binary_missing`` and the worker-pool path.  The CSV SHA-256 values
were recorded before the scenario table and the shared attempt driver were
introduced; the ``summary.json`` digests were recorded before the per-mode
pipeline in ``run_scenario``.  A change that moves them on purpose must say
so in CHANGES.md.
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
        'coverage.csv': 'f63cc08b55f9afb8d119dee2bb1e08277a1735c87b8e1158adfacb11d6983801',
        'intervals.csv': 'addfb984df820a3af986d2ecb49c4b57cb85f626bacfa17daa8e51d25c38aa76',
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
        'coverage.csv': '8d5844c4cc2f29dd84459da42835a664f5bc0461ca746ab390c883230ea05bb8',
        'intervals.csv': '90e49df43c4b8fabf4c5990f1fe28d8b1b5c4c2ffb7a2c4dfd735f1f23422af0',
    }),
    (('interval_censored', 'I', 1), {
        'coverage.csv': 'f63cc08b55f9afb8d119dee2bb1e08277a1735c87b8e1158adfacb11d6983801',
        'gamma_hist.csv': '2ff6c382de8f42f58a219ae2a662d097717e13b3ed205f0bf34ff6047e1af657',
        'intervals.csv': 'addfb984df820a3af986d2ecb49c4b57cb85f626bacfa17daa8e51d25c38aa76',
    }),
    (('interval_censored', 'II', 1), {
        'coverage.csv': 'f63cc08b55f9afb8d119dee2bb1e08277a1735c87b8e1158adfacb11d6983801',
        'gamma_hist.csv': '9e61bfb1d9bb20af5a531c547a4bfe8ec8a15912dec6ae2c6a0614e1c8bf5beb',
        'intervals.csv': 'addfb984df820a3af986d2ecb49c4b57cb85f626bacfa17daa8e51d25c38aa76',
    }),
    (('interval_censored', 'III', 1), {
        'coverage.csv': 'f63cc08b55f9afb8d119dee2bb1e08277a1735c87b8e1158adfacb11d6983801',
        'gamma_hist.csv': '3e41f6fca23080b4cdebeb5ac34d214352c4c640f47de0d54094ea3ea8a59899',
        'intervals.csv': 'addfb984df820a3af986d2ecb49c4b57cb85f626bacfa17daa8e51d25c38aa76',
    }),
    (('interval_censored', 'IV', 1), {
        'coverage.csv': 'f63cc08b55f9afb8d119dee2bb1e08277a1735c87b8e1158adfacb11d6983801',
        'gamma_hist.csv': '43bc55f2b1ffc55c8afd838cd293d513886495b8f75ebc20685dd87d25f42e5a',
        'intervals.csv': 'addfb984df820a3af986d2ecb49c4b57cb85f626bacfa17daa8e51d25c38aa76',
    }),
    (('binary_missing', 'II', 1), {
        'coverage.csv': '8d5844c4cc2f29dd84459da42835a664f5bc0461ca746ab390c883230ea05bb8',
        'gamma_hist.csv': '2a0791d3aa99601e0ae1eda81ad48c9e78b9ee4b2689c935b5b3893e8d462e91',
        'intervals.csv': '90e49df43c4b8fabf4c5990f1fe28d8b1b5c4c2ffb7a2c4dfd735f1f23422af0',
    }),
    (('binary_missing', 'III', 1), {
        'coverage.csv': '8d5844c4cc2f29dd84459da42835a664f5bc0461ca746ab390c883230ea05bb8',
        'gamma_hist.csv': '3ea40af1789be7cc12306a5c9e830599567dae2ef2caaf7611988ef1b34e3630',
        'intervals.csv': '90e49df43c4b8fabf4c5990f1fe28d8b1b5c4c2ffb7a2c4dfd735f1f23422af0',
    }),
    (('binary_missing', 'IV', 1), {
        'coverage.csv': '8d5844c4cc2f29dd84459da42835a664f5bc0461ca746ab390c883230ea05bb8',
        'gamma_hist.csv': 'dea137db5939042717218baf04010cec94e830b31c60549c549a83e15c06814c',
        'intervals.csv': '90e49df43c4b8fabf4c5990f1fe28d8b1b5c4c2ffb7a2c4dfd735f1f23422af0',
    }),
    (('interval_censored', None, 2), {
        'coverage.csv': 'f63cc08b55f9afb8d119dee2bb1e08277a1735c87b8e1158adfacb11d6983801',
        'intervals.csv': 'addfb984df820a3af986d2ecb49c4b57cb85f626bacfa17daa8e51d25c38aa76',
    }),
    (('interval_regression', None, 2), {
        'coverage.csv': 'c52c9408f3a15125240236c27653e520894d0708c89fdb9b6508d42d4a77a873',
        'intervals.csv': '11bd3fc128c0b40a047731c20c90572610c37413161f16a31ab3453986632519',
    }),
    (('errors_in_variables', 'II', 2), {
        'coverage.csv': '265106477f40630a6633b82a520a4dc7bab6311c6221fe86cd41c8feec564f75',
        'gamma_hist.csv': '2affa4cd2a3b5a90cb5fafcf889d89bea710e4c9b85852ab799e7dcfb7702af2',
        'intervals.csv': '25197239bf58ed65838af6d034948f37626de42ccd4135929950746dcdecf882',
    }),
]


# (scenario, prior family, workers) -> SHA-256 of the summary.json content,
# less the fields that vary by machine, serialized by json.dumps(sort_keys=True)
SUMMARY_GOLDEN = {
    ('toy_analytic', None, 1):
        '61b5f1455417b7ca9f3a45a1831011828f87feaa0b8a8ee2730fa280740f3570',
    ('interval_censored', None, 1):
        '81753ed42dce3c5c7e630a7ed47f85a530ea39063e7abccd7b2686408f9111a7',
    ('errors_in_variables', None, 1):
        'a1e02ed02d645aa117ac3be7acfe49663bbcc2703dff074076130b008b867d0a',
    ('interval_regression', None, 1):
        '206ee5e2bf16dc4e5b55ac799381aba688946e6e0a8c62a2ba4311d2577bc802',
    ('binary_missing', None, 1):
        '706ace7d1fc8df681b33a65c43b6afdb1b2fa7e43cb2e38f91bba77e5bd30908',
    ('interval_censored', 'I', 1):
        '51fc3d33dec42790f003a5fe0e2c9e6e40b5652adeff1c9d7bab50f00a596991',
    ('interval_censored', 'II', 1):
        'aeda64d02c2ac673c546dddc352eb7cf6d7730336202d2da14ad14ce7e701369',
    ('interval_censored', 'III', 1):
        'da23974a49c8c0db3bd14b64157a7ce3c0a957a1509db5a08284854f51e4beb2',
    ('interval_censored', 'IV', 1):
        '3b0e7b737226e9266725c02dbdafb53845e4493146f7edf4dfc4a38adbfce272',
    ('binary_missing', 'II', 1):
        '6741623722bc532aeeb4db128bfa2a423d24ab8c44b7444cb36015f3b5f038ef',
    ('binary_missing', 'III', 1):
        'd41e9e6edced407733a7dccd6d8100c1f8695eabadc6d11834bea4c9781ab546',
    ('binary_missing', 'IV', 1):
        '5d03500db1cc58170787335a78fbc6641a958aa183aacdb045cd0071f2eb3f07',
    ('interval_censored', None, 2):
        '5e66c658892424781881b620de9f39f4943fb46b16d1b393f14f0881fd5add44',
    ('interval_regression', None, 2):
        '8c7f224bb6e16d3796cdbf74698a45ee20659ad1da1d4828f314233668feb6af',
    ('errors_in_variables', 'II', 2):
        'cb58410a2e30e0728807da0ce7967756a7d6700785f777a0b49dfc20f6ecf539',
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

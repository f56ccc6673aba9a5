"""Golden CSV digests: a pure refactor must leave every run output byte-identical.

Fifteen small ``run_scenario`` runs (seed 5, n=200, 100 draws) cover every
scenario, every conditional-prior family on ``interval_censored``, families
II-IV on ``binary_missing`` and the worker-pool path.  The SHA-256 values were
recorded before the scenario table and the shared attempt driver were
introduced; a change that moves them on purpose must say so in CHANGES.md.
"""

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


@pytest.mark.parametrize(
    "case, digests", GOLDEN, ids=["-".join(map(str, case)) for case, _ in GOLDEN]
)
def test_csv_digests_unchanged(case, digests, tmp_path):
    scenario, family, workers = case
    report = run_scenario(RunConfig(
        scenario=scenario,
        n=None if scenario == "toy_analytic" else 200,
        n_draws=100,
        seed=5,
        prior_family=family,
        out_dir=str(tmp_path),
        workers=workers,
    ))
    assert report.files == digests

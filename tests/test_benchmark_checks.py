"""The benchmark's own output checks, one round of each workload, in-process.

`perfbench` patches program names (`trainer.train_iteration`,
`Coreset.stage_candidates`, `cli.run_stream`, ...) to capture what its checks
read, and the sweep workload reads the artifacts `coresel run` writes. A
change that breaks either fails here, not only when the benchmark is run.
"""

import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_one_round_of_each_workload_passes_its_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import reference
    import workloads

    reference.self_check()
    failures = {}
    for name, workload_class in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload = workload_class(0, str(workdir))
        inputs = workload.setup()
        _, result = workload.run_round(inputs)
        outcomes = workload.check(inputs, result)
        assert len(outcomes) == workload.ops_per_round, name
        failures[name] = [(key, problems) for key, problems, _ in outcomes if problems]
    assert failures == {name: [] for name in workloads.WORKLOADS}

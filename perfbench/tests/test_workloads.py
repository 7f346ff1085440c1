"""The seeded generator varies values only, deterministically."""

import pytest

import workloads


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_config(workload):
    assert workloads.generate(workload, 7).config_text() == workloads.generate(workload, 7).config_text()
    assert workloads.generate(workload, 7).config_text() != workloads.generate(workload, 8).config_text()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_never_changes_sizes(workload):
    size_keys = ("n_atoms", "t_max", "dt", "sample_stride", "n_theta", "n_phi", "alpha_l", "alpha_r")
    jobs = [workloads.generate(workload, s) for s in range(workloads.POOL)]
    for key in size_keys:
        assert len({job.config.get(key) for job in jobs}) == 1, key
    assert len({job.n_steps() for job in jobs}) == 1
    assert len({len(job.config.get("q_omega_t", ())) for job in jobs}) == 1
    assert len({len(job.config.get("sweep_values", ())) for job in jobs}) == 1


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_variant_inside_step_bound(workload):
    for s in range(workloads.POOL):
        assert workloads.step_scale(workloads.generate(workload, s)) <= workloads.STEP_BOUND


def test_seed_beyond_pool_reuses_a_variant():
    job = workloads.generate("fig6_master", workloads.POOL + 3)
    assert job == workloads.generate("fig6_master", 3)


def test_halved_step_keeps_sample_times():
    job = workloads.generate("fig6_master", 0)
    half = job.halved_step()
    assert half.n_steps() == 2 * job.n_steps()
    assert half.config["sample_stride"] * half.config["dt"] == pytest.approx(
        job.config["sample_stride"] * job.config["t_max"] / job.n_steps()
    )

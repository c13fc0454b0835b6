"""Tests for operators, tasks, stage materialization, templates, seasonality,
and the workload generator."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import repro.workload.job as job_module

from repro.utils.rng import RngStreams
from repro.workload import (
    FLAT_PROFILE,
    OPERATORS,
    JobRuntime,
    JobTemplate,
    SeasonalityProfile,
    StageSpec,
    WorkloadGenerator,
    benchmark_templates,
    default_templates,
    estimate_jobs_per_hour,
    operator_by_name,
)
from repro.workload.operators import sample_task_params


class TestOperators:
    def test_nine_task_types_from_figure_6(self):
        names = {op.name for op in OPERATORS}
        assert names == {
            "Extract", "Split", "Process", "Aggregate", "Partition",
            "IndexedPartition", "Cross", "Combine", "PodAggregate",
        }

    def test_lookup_and_unknown(self):
        assert operator_by_name("Extract").name == "Extract"
        with pytest.raises(KeyError):
            operator_by_name("Shuffle")

    def test_sampling_mean_matches_spec(self):
        op = operator_by_name("Process")
        rng = np.random.default_rng(0)
        work, data, ram, ssd = sample_task_params(op, 20000, rng)
        assert np.mean(work) == pytest.approx(op.work_mean_s, rel=0.05)
        assert np.mean(data) == pytest.approx(op.data_mean_bytes, rel=0.05)
        assert min(ram) > 0 and min(ssd) > 0

    def test_work_scale_multiplies(self):
        op = operator_by_name("Process")
        rng = np.random.default_rng(0)
        work, *_ = sample_task_params(op, 20000, rng, work_scale=2.0)
        assert np.mean(work) == pytest.approx(2.0 * op.work_mean_s, rel=0.05)

    def test_zero_tasks_rejected(self):
        with pytest.raises(ValueError):
            sample_task_params(operator_by_name("Split"), 0, np.random.default_rng(0))


class TestOneDrawSampler:
    """``sample_task_params`` draws a stage's variates in one
    ``standard_normal`` call and transforms them in Python. The result must
    equal numpy's own ``lognormal``/``normal`` calls element by element, and
    leave the generator in the same state, or every simulation changes."""

    SCALES = ((1.0, 1.0), (0.25, 3.0), (4.0, 0.1), (1.7, 1.7))

    @staticmethod
    def _numpy_reference(op, n_tasks, rng, work_scale, data_scale):
        work_mu = np.log(op.work_mean_s * work_scale) - op.work_sigma**2 / 2.0
        data_mu = np.log(op.data_mean_bytes * data_scale) - op.data_sigma**2 / 2.0
        work = rng.lognormal(mean=work_mu, sigma=op.work_sigma, size=n_tasks)
        data = rng.lognormal(mean=data_mu, sigma=op.data_sigma, size=n_tasks)
        ram = np.maximum(
            0.25, rng.normal(op.ram_gb_per_container, op.ram_gb_per_container * 0.2, n_tasks)
        )
        ssd = np.maximum(
            0.5, rng.normal(op.ssd_gb_per_container, op.ssd_gb_per_container * 0.2, n_tasks)
        )
        return work.tolist(), data.tolist(), ram.tolist(), ssd.tolist()

    @pytest.mark.parametrize("op", OPERATORS, ids=lambda op: op.name)
    def test_equals_numpy_lognormal_and_normal(self, op):
        for work_scale, data_scale in self.SCALES:
            for seed in range(10):
                for n_tasks in (1, 2, 9, 64):
                    ours = np.random.default_rng(seed)
                    theirs = np.random.default_rng(seed)
                    got = sample_task_params(op, n_tasks, ours, work_scale, data_scale)
                    want = self._numpy_reference(
                        op, n_tasks, theirs, work_scale, data_scale
                    )
                    assert got == want
                    assert ours.bit_generator.state == theirs.bit_generator.state

    def test_floors_apply_like_numpy_maximum(self):
        # A made-up operator whose RAM/SSD means sit at the floors, so
        # about half of the draws are clamped.
        low = dataclasses.replace(
            operator_by_name("Process"), ram_gb_per_container=0.25, ssd_gb_per_container=0.5
        )
        got = sample_task_params(low, 200, np.random.default_rng(4))
        want = self._numpy_reference(low, 200, np.random.default_rng(4), 1.0, 1.0)
        assert got == want
        assert 0.25 in got[2] and 0.5 in got[3]


class TestStageMaterialization:
    """``start_next_stage`` validates a stage's draws once and hands out
    ``(work_seconds, data_bytes, ram_gb, ssd_gb)`` rows."""

    N_TASKS = 4

    def _job(self) -> JobRuntime:
        stage = StageSpec("Process", n_tasks_mean=self.N_TASKS, n_tasks_sigma=0.0)
        template = JobTemplate(name="one-stage", stages=(stage,), size_sigma=0.0)
        return JobRuntime(3, template, 0.0, np.random.default_rng(0))

    def _sample_with_last(self, monkeypatch, work: float, data: float) -> None:
        """Make the stage's last task draw ``work``/``data``; the rest are valid."""

        def sample(op, n_tasks, rng, work_scale=1.0, data_scale=1.0):
            valid = [10.0] * (n_tasks - 1)
            return valid + [work], valid + [data], [2.0] * n_tasks, [8.0] * n_tasks

        monkeypatch.setattr(job_module, "sample_task_params", sample)

    def _assert_rejected(self, job, message: str) -> None:
        with pytest.raises(ValueError) as staged:
            job.start_next_stage(np.random.default_rng(1))
        assert str(staged.value) == message

    def test_nonpositive_work_is_rejected(self, monkeypatch):
        self._sample_with_last(monkeypatch, work=0.0, data=1.0)
        self._assert_rejected(self._job(), "work_seconds must be positive")

    def test_negative_data_is_rejected(self, monkeypatch):
        self._sample_with_last(monkeypatch, work=10.0, data=-1.0)
        self._assert_rejected(self._job(), "data_bytes must be non-negative")

    @pytest.mark.parametrize("cpu_fraction", [0.0, 1.5])
    def test_cpu_fraction_outside_the_unit_interval_is_rejected(
        self, monkeypatch, cpu_fraction
    ):
        # OperatorSpec validates its own cpu_fraction, so a stand-in with
        # the same fields plays the misconfigured operator.
        fields = dataclasses.asdict(operator_by_name("Process"))
        bad = SimpleNamespace(**{**fields, "cpu_fraction": cpu_fraction})
        monkeypatch.setattr(job_module, "operator_by_name", lambda name: bad)
        self._assert_rejected(self._job(), "cpu_fraction must be in (0, 1]")

    def test_stage_tasks_equal_directly_constructed_tasks(self):
        job = self._job()
        rows = job.start_next_stage(np.random.default_rng(1))
        op = operator_by_name("Process")
        work, data, ram, ssd = sample_task_params(op, self.N_TASKS, np.random.default_rng(1))
        assert rows == list(zip(work, data, ram, ssd, strict=True))
        # What the rows share lives on the job, for the stage's lifetime.
        assert job.operator == "Process"
        assert job.cpu_fraction == op.cpu_fraction
        assert job.remaining_in_stage == self.N_TASKS


class TestTemplates:
    def test_default_mix_is_nonempty_weighted(self):
        templates = default_templates()
        assert len(templates) >= 5
        assert all(t.weight > 0 for t in templates)

    def test_benchmark_templates_flagged_and_stable(self):
        for template in benchmark_templates():
            assert template.is_benchmark
            assert template.weight == 0.0
            assert template.size_sigma <= 0.1
            for stage in template.stages:
                assert stage.n_tasks_sigma == 0.0

    def test_stage_task_count_sampling(self):
        stage = StageSpec("Process", n_tasks_mean=10, n_tasks_sigma=0.0)
        rng = np.random.default_rng(0)
        assert stage.sample_n_tasks(rng) == 10
        assert stage.sample_n_tasks(rng, size_mult=2.0) == 20

    def test_stochastic_count_at_least_one(self):
        stage = StageSpec("Process", n_tasks_mean=1.2, n_tasks_sigma=0.8)
        rng = np.random.default_rng(0)
        counts = [stage.sample_n_tasks(rng) for _ in range(200)]
        assert min(counts) >= 1

    def test_template_needs_stages(self):
        with pytest.raises(ValueError):
            JobTemplate(name="empty", stages=())

    def test_expected_work_positive(self):
        for template in default_templates():
            assert template.expected_work_seconds() > 0

    def test_unknown_operator_in_stage_rejected_eagerly(self):
        with pytest.raises(KeyError):
            StageSpec("NotAnOp", n_tasks_mean=5)


class TestSeasonality:
    def test_flat_profile_is_constant_one(self):
        for t in np.linspace(0, 7 * 86400, 50):
            assert FLAT_PROFILE.multiplier(t) == pytest.approx(1.0)

    def test_peak_at_peak_hour(self):
        profile = SeasonalityProfile(diurnal_amplitude=0.3, peak_hour=14.0,
                                     weekend_dip=0.0)
        peak = profile.multiplier(14 * 3600.0)
        trough = profile.multiplier(2 * 3600.0)
        assert peak == pytest.approx(1.3)
        assert trough < peak

    def test_weekend_dip(self):
        profile = SeasonalityProfile(diurnal_amplitude=0.0, weekend_dip=0.25)
        monday = profile.multiplier(12 * 3600.0)
        saturday = profile.multiplier(5 * 86400.0 + 12 * 3600.0)
        assert saturday == pytest.approx(0.75 * monday)

    def test_max_multiplier_bounds_profile(self):
        profile = SeasonalityProfile(diurnal_amplitude=0.25, weekend_dip=0.2)
        times = np.linspace(0, 7 * 86400, 500)
        values = [profile.multiplier(t) for t in times]
        assert max(values) <= profile.max_multiplier + 1e-9

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            SeasonalityProfile(diurnal_amplitude=1.5)
        with pytest.raises(ValueError):
            SeasonalityProfile(weekend_dip=-0.1)


class TestGenerator:
    def test_rate_approximately_realized(self):
        generator = WorkloadGenerator(
            default_templates(), jobs_per_hour=500.0, streams=RngStreams(0)
        )
        workload = generator.generate(24.0)
        assert workload.jobs_per_hour == pytest.approx(500.0, rel=0.1)

    def test_arrivals_sorted_and_in_range(self):
        generator = WorkloadGenerator(
            default_templates(), jobs_per_hour=200.0, streams=RngStreams(1)
        )
        workload = generator.generate(6.0)
        times = [a.time for a in workload]
        assert times == sorted(times)
        assert all(0 <= t < 6 * 3600 for t in times)

    def test_benchmark_injection_cadence(self):
        generator = WorkloadGenerator(
            default_templates(), jobs_per_hour=50.0, streams=RngStreams(2),
            benchmark_period_hours=6.0,
        )
        workload = generator.generate(24.0)
        benchmarks = [a for a in workload if a.template.is_benchmark]
        # 3 benchmark templates x 4 periods.
        assert len(benchmarks) == 12

    def test_deterministic_for_seed(self):
        def gen(seed):
            return WorkloadGenerator(
                default_templates(), jobs_per_hour=100.0, streams=RngStreams(seed)
            ).generate(4.0)

        a, b = gen(7), gen(7)
        assert [x.time for x in a] == [x.time for x in b]
        assert [x.template.name for x in a] == [x.template.name for x in b]

    def test_seasonal_rate_modulation(self):
        profile = SeasonalityProfile(diurnal_amplitude=0.5, weekend_dip=0.0,
                                     peak_hour=12.0)
        generator = WorkloadGenerator(
            default_templates(), jobs_per_hour=2000.0, seasonality=profile,
            streams=RngStreams(3),
        )
        workload = generator.generate(24.0)
        hours = np.array([a.time // 3600 for a in workload])
        peak_count = np.sum((hours >= 10) & (hours < 14))
        trough_count = np.sum(hours < 4)
        assert peak_count > trough_count * 1.5

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(default_templates(), jobs_per_hour=0.0)
        with pytest.raises(ValueError):
            WorkloadGenerator(benchmark_templates(), jobs_per_hour=10.0)  # all weight 0
        generator = WorkloadGenerator(default_templates(), jobs_per_hour=10.0)
        with pytest.raises(ValueError):
            generator.generate(0.0)


class TestRateEstimation:
    def test_estimate_scales_with_slots(self):
        rate_small = estimate_jobs_per_hour(1000, 0.6, default_templates(), 300.0)
        rate_large = estimate_jobs_per_hour(2000, 0.6, default_templates(), 300.0)
        assert rate_large == pytest.approx(2 * rate_small)

    def test_estimate_validates_occupancy(self):
        with pytest.raises(ValueError):
            estimate_jobs_per_hour(1000, 0.0, default_templates(), 300.0)

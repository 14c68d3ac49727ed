"""Distillation lab tests: closed-form oracles for the losses, the score
function, the distribution-matching gradient, and the training loop's
gating/phase behaviour."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hybridstream import distill
from hybridstream.distill import (
    AffineGenerator,
    DistillConfig,
    GaussianWorld,
    TrainResult,
    diffuse_gaussian,
    dmd_gradient,
    flow_matching_loss,
    gaussian_kl,
    gaussian_score,
    reg_loss,
    teacher_rollout,
    train,
)
from hybridstream.engine import rectified_flow
from hybridstream.errors import DivergenceError, ShapeError
from hybridstream.numerics import SeededRng
from hybridstream.verify import exact_dmd_gradient


def world2(seed=8):
    return GaussianWorld.random(SeededRng(seed), 2)


class TestGaussianWorld:
    def test_requires_positive_definite(self):
        with pytest.raises(np.linalg.LinAlgError):
            GaussianWorld(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_requires_symmetry(self):
        with pytest.raises(ValueError):
            GaussianWorld(np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]))

    def test_sample_moments(self):
        w = world2()
        x = w.sample(SeededRng(1), 200_000)
        assert np.abs(x.mean(axis=0) - w.mean).max() < 0.02
        emp_cov = np.cov(x.T)
        assert np.abs(emp_cov - w.cov).max() < 0.05


class TestGaussianScore:
    def test_zero_at_mean(self):
        w = world2()
        assert np.abs(gaussian_score(w.mean, w.mean, w.cov)).max() < 1e-12

    def test_standard_normal_score_is_negative_x(self):
        x = SeededRng(2).normal(3)
        got = gaussian_score(x, np.zeros(3), np.eye(3))
        assert np.abs(got + x).max() < 1e-12

    def test_matches_finite_difference_log_density(self):
        rng = SeededRng(3)
        for trial in range(20):
            n = 2 + trial % 3
            w = GaussianWorld.random(rng.derive(trial), n)
            x = rng.normal(n)
            inv = np.linalg.inv(w.cov)
            _, logdet = np.linalg.slogdet(w.cov)

            def logpdf(p):
                d = p - w.mean
                return -0.5 * (d @ inv @ d + logdet + n * math.log(2 * math.pi))

            h = 1e-5
            fd = np.zeros(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd[i] = (logpdf(x + e) - logpdf(x - e)) / (2 * h)
            got = gaussian_score(x, w.mean, w.cov)
            assert np.abs(got - fd).max() < 1e-5

    def test_singular_cov_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            gaussian_score(np.zeros(2), np.zeros(2), np.zeros((2, 2)))

    def test_diffused_distribution(self):
        w = world2()
        mean_t, cov_t = diffuse_gaussian(w.mean, w.cov, 0.25)
        assert np.allclose(mean_t, 0.75 * w.mean)
        assert np.allclose(cov_t, 0.75**2 * w.cov + 0.25**2 * np.eye(2))


class TestFlowMatchingLoss:
    def test_perfect_predictor_is_zero(self):
        rng = SeededRng(4)
        x0 = rng.normal((64, 3))
        eps = rng.normal((64, 3))
        t = rng.uniform(64)
        loss = flow_matching_loss(lambda xt, tt: eps - x0, x0, eps, t)
        assert loss == 0.0

    def test_zero_predictor_moment_identity(self):
        # E ||eps - x0||^2 = n + ||mean||^2 + tr(cov); check by Monte Carlo
        w = world2()
        n = w.n
        batch = 100_000
        rng = SeededRng(5)
        x0 = w.sample(rng, batch)
        eps = rng.normal((batch, n))
        t = rng.uniform(batch)
        loss = flow_matching_loss(lambda xt, tt: np.zeros_like(xt), x0, eps, t)
        want = n + float(w.mean @ w.mean) + float(np.trace(w.cov))
        # per-sample variance of ||eps - x0||^2 is a few times its mean
        sigma = 3.0 * want / math.sqrt(batch)
        assert abs(loss - want) < 3 * sigma

    def test_stationary_at_least_squares_optimum(self):
        # for a frozen batch, the affine velocity minimizing the empirical
        # loss solves a least-squares problem; finite differences of the
        # loss at that solution must vanish
        w = world2()
        n = w.n
        batch = 4000
        t_fix = 0.4
        rng = SeededRng(6)
        x0 = w.sample(rng, batch)
        eps = rng.normal((batch, n))
        t = np.full(batch, t_fix)
        a, bt = rectified_flow(t_fix)
        xt = a * x0 + bt * eps
        target = eps - x0
        design = np.column_stack([xt, np.ones(batch)])
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        w_opt, c_opt = coef[:n].T, coef[n]

        def loss_at(w_mat, c_vec):
            fn = lambda x, tt: x @ w_mat.T + c_vec
            return flow_matching_loss(fn, x0, eps, t)

        h = 1e-6
        for i in range(n):
            for j in range(n):
                dw = np.zeros((n, n))
                dw[i, j] = h
                fd = (loss_at(w_opt + dw, c_opt) - loss_at(w_opt - dw, c_opt)) / (2 * h)
                assert abs(fd) < 1e-3
            dc = np.zeros(n)
            dc[i] = h
            fd = (loss_at(w_opt, c_opt + dc) - loss_at(w_opt, c_opt - dc)) / (2 * h)
            assert abs(fd) < 1e-3

        # the empirical optimum approaches the closed-form population one
        cov_t = a * a * w.cov + bt * bt * np.eye(n)
        w_star = (bt * np.eye(n) - a * w.cov) @ np.linalg.inv(cov_t)
        c_star = -w_star @ (a * w.mean) - w.mean
        assert np.abs(w_opt - w_star).max() < 0.15
        assert np.abs(c_opt - c_star).max() < 0.15

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            flow_matching_loss(lambda x, t: x, np.zeros((4, 2)), np.zeros((3, 2)),
                               np.zeros(4))


class TestTeacherRollout:
    def test_zero_noise_maps_to_mean(self):
        w = world2()
        out = teacher_rollout(w, np.zeros((1, 2)))
        assert np.abs(out[0] - w.mean).max() < 1e-12

    def test_standard_normal_world_is_identity(self):
        w = GaussianWorld(np.zeros(3), np.eye(3))
        eps = SeededRng(7).normal((10, 3))
        assert np.abs(teacher_rollout(w, eps) - eps).max() < 1e-12

    def test_rollout_moments(self):
        w = world2()
        eps = SeededRng(8).normal((100_000, 2))
        out = teacher_rollout(w, eps)
        assert np.abs(out.mean(axis=0) - w.mean).max() < 0.02
        assert np.abs(np.cov(out.T) - w.cov).max() < 0.05


class TestRegLoss:
    def test_identical_is_zero(self):
        x = SeededRng(9).normal((5, 4))
        assert reg_loss(x, x) == 0.0

    def test_constant_offset_closed_form(self):
        x = SeededRng(10).normal((6, 3))
        c = 0.7
        assert abs(reg_loss(x, x + c) - c * c) < 1e-12

    def test_symmetric(self):
        rng = SeededRng(11)
        a, b = rng.normal((4, 4)), rng.normal((4, 4))
        assert reg_loss(a, b) == reg_loss(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reg_loss(np.zeros((2, 2)), np.zeros((2, 3)))


class TestDmdGradient:
    def test_matched_distributions_zero_gradient(self):
        w = world2()
        gen = AffineGenerator(w.sqrt_cov.copy(), w.mean.copy())
        g = dmd_gradient(gen, w, 0.5, SeededRng(12), 100_000)
        assert g.norm() <= 3.0 / math.sqrt(100_000)

    def test_1d_mean_mismatch_sign_and_magnitude(self):
        # real N(0,1), student A=1, b=2: only the mean is off. The exact
        # KL derivative in b comes from numeric quadrature of the KL
        # integral; the estimator must point the same way and agree in
        # magnitude within 10%.
        w = GaussianWorld(np.zeros(1), np.eye(1))
        gen = AffineGenerator(np.eye(1), np.array([2.0]))
        t = 0.5
        g = dmd_gradient(gen, w, t, SeededRng(13), 100_000)
        assert g.b[0] > 0  # descent reduces b toward 0

        a, bt = rectified_flow(t)
        var = a * a + bt * bt
        xs = np.linspace(-30, 30, 400_001)

        def kl_of_b(bval):
            pf = np.exp(-((xs - a * bval) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)
            # log(pf/pr) in closed form; the tails underflow the densities
            log_ratio = (xs**2 - (xs - a * bval) ** 2) / (2 * var)
            return np.trapezoid(pf * log_ratio, xs)

        h = 1e-4
        want = (kl_of_b(2.0 + h) - kl_of_b(2.0 - h)) / (2 * h)
        assert abs(g.b[0] - want) / abs(want) < 0.10

    def test_estimator_matches_closed_form_expectation(self):
        w = world2()
        gen = AffineGenerator(0.7 * np.eye(2) + 0.1, np.array([0.3, -0.2]))
        ga, gb = exact_dmd_gradient(gen, w, 0.25)
        est = dmd_gradient(gen, w, 0.25, SeededRng(14), 200_000)
        assert np.abs(est.A - ga).max() < 0.02
        assert np.abs(est.b - gb).max() < 0.02

    def test_alpha_zero_step_contributes_nothing(self):
        w = world2()
        gen = AffineGenerator(0.5 * np.eye(2), np.zeros(2))
        g = dmd_gradient(gen, w, 1.0, SeededRng(15), 1000)
        assert g.norm() == 0.0

    def test_invalid_t(self):
        w = world2()
        gen = AffineGenerator(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            dmd_gradient(gen, w, 0.0, SeededRng(16), 10)

    def test_noise_drawn_in_one_call(self, monkeypatch):
        w = world2()
        gen = AffineGenerator(0.7 * np.eye(2) + 0.1, np.array([0.3, -0.2]))
        normal = SeededRng.normal
        counts = []

        def one_call_per_array(self, shape, count=None):
            counts.append(count)
            if count is None:
                return normal(self, shape)
            return np.stack([normal(self, shape) for _ in range(count)])

        batched = dmd_gradient(gen, w, 0.5, SeededRng(17), 33)
        monkeypatch.setattr(SeededRng, "normal", one_call_per_array)
        separate = dmd_gradient(gen, w, 0.5, SeededRng(17), 33)
        assert counts == [2]
        assert np.array_equal(batched.A, separate.A) and np.array_equal(batched.b, separate.b)

    def test_convergence_smoke(self):
        # short-budget version of the convergence experiment
        rng = SeededRng(123)
        w = GaussianWorld.random(rng.derive(0), 2)
        gen = AffineGenerator(0.5 * np.eye(2), np.zeros(2))
        res = train(DistillConfig(lam=0.0, steps=600, fixture_chunks=0), w, gen, rng.derive(1))
        assert res.rows[-1].mean_err <= 0.05
        assert res.rows[-1].cov_err <= 0.05


class TestKL:
    def test_zero_for_identical(self):
        w = world2()
        assert abs(gaussian_kl(w.mean, w.cov, w.mean, w.cov)) < 1e-12

    def test_known_value(self):
        # KL(N(mu, I) || N(0, I)) = ||mu||^2 / 2
        mu = np.array([1.0, -2.0])
        got = gaussian_kl(mu, np.eye(2), np.zeros(2), np.eye(2))
        assert abs(got - 2.5) < 1e-12


class TestConfig:
    @pytest.mark.parametrize("name", ["phase_switch_step", "steps", "batch_size",
                                      "fixture_chunks"])
    def test_fractional_integer_field_rejected(self, name):
        # steps=10.5 was accepted, and the loop's range() failed on it later
        value = getattr(DistillConfig(), name)
        held = getattr(DistillConfig(**{name: np.int64(value)}), name)
        assert held == value and type(held) is int
        for bad in (value + 0.5, float(value)):
            with pytest.raises(TypeError, match=f"{name} must be an integer"):
                DistillConfig(**{name: bad})

    def test_bool_integer_field_rejected(self):
        with pytest.raises(TypeError, match="steps must be an integer, got True"):
            DistillConfig(steps=True)

    @pytest.mark.parametrize("name", ["lam", "generator_lr"])
    def test_float_field_that_is_not_a_number_rejected(self, name):
        # lam=True was held as 1.0, and lam="0.1" failed comparing a float
        # with a str, naming no field
        value = getattr(DistillConfig(), name)
        held = getattr(DistillConfig(**{name: np.float64(value)}), name)
        assert held == value and type(held) is float
        assert type(getattr(DistillConfig(**{name: 1}), name)) is float
        for bad in (True, str(value), None):
            with pytest.raises(TypeError, match=f"{name} must be a real number, got {bad!r}"):
                DistillConfig(**{name: bad})

    def test_timesteps_held_as_a_tuple(self):
        schedule = [1.0, 0.5]
        cfg = DistillConfig(timesteps=schedule)
        schedule.append(0.75)
        assert cfg.timesteps == (1.0, 0.5)
        assert hash(cfg) == hash(DistillConfig(timesteps=(1.0, 0.5)))


class TestTrainLoop:
    def cfg(self, **kw):
        base = dict(steps=40, phase_switch_step=20)
        base.update(kw)
        return DistillConfig(**base)

    def test_lambda_zero_matches_reg_disabled_run(self):
        w = world2()
        gen = AffineGenerator(0.5 * np.eye(2), np.zeros(2))
        a = train(self.cfg(lam=0.0), w, gen, SeededRng(20))
        b = train(self.cfg(lam=0.05), w, gen, SeededRng(20),
                  lambda_override=lambda step, s: 0.0)
        assert np.array_equal(a.parameter_trajectory(), b.parameter_trajectory())
        assert all(r.loss_reg == 0.0 for r in a.rows)

    def test_gating_bit_identity(self):
        w = world2()
        gen = AffineGenerator(0.5 * np.eye(2), np.zeros(2))
        a = train(self.cfg(), w, gen, SeededRng(21))
        b = train(self.cfg(), w, gen, SeededRng(21),
                  lambda_override=lambda step, s: 0.05 if s == 0 else 0.0)
        assert np.array_equal(a.parameter_trajectory(), b.parameter_trajectory())

    def test_loss_decomposition_at_final_supervision_step(self):
        w = world2()
        gen = AffineGenerator(0.5 * np.eye(2), np.zeros(2))
        res = train(self.cfg(steps=80), w, gen, SeededRng(22))
        supervised = [r for r in res.rows if r.s_index == 0]
        assert supervised, "expected some steps to sample the noisiest slot"
        for r in supervised:
            assert r.lambda_effective == 0.05
            assert r.loss_reg > 0.0
        unsupervised = [r for r in res.rows if r.s_index != 0]
        assert all(r.loss_reg == 0.0 for r in unsupervised)

    def test_phase_flips_exactly_once(self):
        w = world2()
        gen = AffineGenerator(0.5 * np.eye(2), np.zeros(2))
        res = train(self.cfg(), w, gen, SeededRng(23))
        phases = [r.phase for r in res.rows]
        assert phases[:20] == ["dense"] * 20
        assert phases[20:] == ["hybrid"] * 20

    def test_phase_switch_zero_means_all_hybrid(self):
        w = world2()
        gen = AffineGenerator(0.5 * np.eye(2), np.zeros(2))
        res = train(self.cfg(phase_switch_step=0), w, gen, SeededRng(24))
        assert all(r.phase == "hybrid" for r in res.rows)

    def test_deterministic_trace(self):
        w = world2()
        gen = AffineGenerator(0.5 * np.eye(2), np.zeros(2))
        a = train(self.cfg(), w, gen, SeededRng(25))
        b = train(self.cfg(), w, gen, SeededRng(25))
        assert np.array_equal(a.parameter_trajectory(), b.parameter_trajectory())
        assert [r.loss_dmd for r in a.rows] == [r.loss_dmd for r in b.rows]

    @pytest.mark.parametrize("fixture_chunks", [4, 1, 0])
    def test_fixture_noise_drawn_in_one_call_per_step(self, monkeypatch, fixture_chunks):
        cfg = self.cfg(steps=16, phase_switch_step=8, fixture_chunks=fixture_chunks)
        batched = train(cfg, world2(), AffineGenerator(0.5 * np.eye(2), np.zeros(2)),
                        SeededRng(30))
        # the normal calls on train's rng, (shape, count) each, with every
        # batched draw made one call per array
        normal = SeededRng.normal
        rng, calls = SeededRng(30), []

        def one_call_per_array(self, shape, count=None):
            if self is rng:
                calls.append((tuple(shape), count))
            if count is None:
                return normal(self, shape)
            return np.stack([normal(self, shape) for _ in range(count)])

        monkeypatch.setattr(SeededRng, "normal", one_call_per_array)
        separate = train(cfg, world2(), AffineGenerator(0.5 * np.eye(2), np.zeros(2)), rng)
        assert np.array_equal(batched.parameter_trajectory(), separate.parameter_trajectory())
        chunk = (distill._FIXTURE.chunk_tokens, distill._FIXTURE.model_dim)
        assert len({r.s_index for r in separate.rows}) > 1
        # the teacher pool, then per step the fixture's roll (if any) and the critic's pair
        per_step = [[(chunk, fixture_chunks * (r.s_index + 1))] * bool(fixture_chunks)
                    + [((cfg.batch_size, 2), 2)] for r in separate.rows]
        assert calls == [((cfg.batch_size, 2), None)] + sum(per_step, [])

    def test_trajectory_is_a_declared_field(self):
        w = world2()
        res = train(self.cfg(steps=5, fixture_chunks=0), w,
                    AffineGenerator(0.5 * np.eye(2), np.zeros(2)), SeededRng(28))
        assert res.trajectory.shape == (5, 6)
        assert np.array_equal(res.trajectory[-1],
                              np.concatenate([res.generator.A.reshape(-1), res.generator.b]))
        rebuilt = TrainResult(res.rows, res.generator, res.trajectory)
        assert np.array_equal(rebuilt.parameter_trajectory(), res.parameter_trajectory())
        assert "trajectory=" in repr(res)

    def test_input_generator_not_mutated(self):
        w = world2()
        gen = AffineGenerator(0.5 * np.eye(2), np.zeros(2))
        train(self.cfg(steps=5, fixture_chunks=0), w, gen, SeededRng(26))
        assert np.array_equal(gen.A, 0.5 * np.eye(2))
        assert np.array_equal(gen.b, np.zeros(2))

    @pytest.mark.parametrize("lr, cause", [(5.0, "the critic's solve failed"),
                                           (1e308, "the generator's error is no longer finite")])
    def test_diverging_run_names_its_first_bad_step(self, lr, cause):
        # the named step is the first bad one: a run of just the steps
        # before it ends cleanly
        cfg = self.cfg(generator_lr=lr, steps=300, fixture_chunks=0)
        gen = AffineGenerator(0.5 * np.eye(2), np.zeros(2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=rf"^step \d+: {cause}") as info:
                train(cfg, world2(), gen, SeededRng(29))
            step = int(str(info.value).split(":")[0].removeprefix("step "))
            assert step > 0 or lr == 1e308
            if step:
                rows = train(replace(cfg, steps=step), world2(), gen, SeededRng(29)).rows
                assert len(rows) == step and math.isfinite(rows[-1].cov_err)


class TestPhaseSchedule:
    def test_monotone_single_switch(self):
        # train's rows switch from dense to hybrid at exactly phase_switch_step
        res = train(DistillConfig(steps=20, phase_switch_step=7), world2(),
                    AffineGenerator(0.5 * np.eye(2), np.zeros(2)), SeededRng(27))
        assert [r.phase for r in res.rows] == ["dense"] * 7 + ["hybrid"] * 13

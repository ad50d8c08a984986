import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from dampol.errors import DampolError
from dampol.lattice import FrequencyGrid, build_lattice

from reference import (
    TensorKernel,
    blocks,
    curl_matrix,
    double_curl_matrix,
    laplacian_matrix,
    longitudinal_matrix,
    momentum_basis,
    momentum_rotate,
    phases,
    real_basis,
    site_positions,
    sites,
    transverse_basis,
    transverse_matrix,
)


def random_kernel(lattice, rng):
    d = lattice.dim
    return TensorKernel(lattice, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


class TestBuildLattice:
    def test_single_site(self):
        lat = build_lattice(1, 1.0)
        assert lat.n_sites == 1
        assert lat.cell_volume == 1.0

    def test_eight_sites(self):
        lat = build_lattice(2, 0.5)
        assert lat.n_sites == 8
        assert lat.cell_volume == pytest.approx(0.125)

    def test_reciprocal_nodes_n3(self):
        lat = build_lattice(3, 1.0)
        assert lat.n_sites == 27
        per_axis = np.unique(np.round(lat.kvecs[:, 0], 12))
        expected = np.unique(np.round(2 * np.pi * np.fft.fftfreq(3), 12))
        assert np.allclose(per_axis, expected)

    def test_periodicity_of_reciprocal_vectors(self):
        lat = build_lattice(3, 0.7)
        period = lat.n_per_axis * lat.spacing
        phases = np.exp(1j * lat.kvecs * period)
        assert np.allclose(phases, 1.0, atol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(DampolError):
            build_lattice(0, 1.0)
        with pytest.raises(DampolError):
            build_lattice(2, -1.0)


class TestRealOperators:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("k0_transverse", [True, False])
    def test_odd_and_small_lattices_build(self, n, k0_transverse):
        lat = build_lattice(n, 1.0, k0_transverse)
        for op in (transverse_matrix(lat), double_curl_matrix(lat), laplacian_matrix(lat)):
            assert op.dtype == float and op.shape == (lat.dim, lat.dim)

    def test_all_nyquist_mode_joins_k0_sector(self):
        # at n = 4 the field (-1)^(x+y+z) has every component at Nyquist; the
        # derivatives drop those components, so it sits in the k = 0 sector
        for k0_transverse in (True, False):
            lat = build_lattice(4, 1.0, k0_transverse)
            sign = (-1.0) ** np.indices((4, 4, 4)).sum(axis=0).ravel()
            field = np.kron(sign, [1.0, 2.0, -0.5])
            expected = field if k0_transverse else 0.0 * field
            gap = transverse_matrix(lat) @ field - expected
            assert np.linalg.norm(gap) <= 1e-13 * np.linalg.norm(field)
            for op in (curl_matrix(lat), double_curl_matrix(lat), laplacian_matrix(lat)):
                scale = np.linalg.norm(op) * np.linalg.norm(field)
                assert np.linalg.norm(op @ field) <= 1e-13 * scale

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("k0_transverse", [True, False])
    @settings(max_examples=3, deadline=None, derandomize=True, database=None)
    @given(spacing=st_.floats(0.3, 2.0), seed=st_.integers(0, 2**32 - 1))
    def test_spectral_identities(self, n, k0_transverse, spacing, seed):
        lat = build_lattice(n, spacing, k0_transverse)
        pt, curl, dcurl = transverse_matrix(lat), curl_matrix(lat), double_curl_matrix(lat)
        assert pt.dtype == float
        assert np.linalg.norm(pt @ pt - pt) <= 1e-13 * np.linalg.norm(pt)
        scale = max(np.linalg.norm(dcurl), 1e-300)
        assert np.linalg.norm(curl @ curl - dcurl) <= 1e-13 * scale
        field = pt @ np.random.default_rng(seed).standard_normal(lat.dim)
        gap = -laplacian_matrix(lat) @ field - dcurl @ field
        assert np.linalg.norm(gap) <= 1e-13 * scale * np.linalg.norm(field)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("k0_transverse", [True, False])
class TestMomentumSectors:
    @pytest.mark.parametrize("spacing", [1.0, 0.37, 2.5])
    def test_phases_are_the_direct_plane_waves(self, n, k0_transverse, spacing):
        # the Kronecker cube of one (n, n) axis factor against exp(i k . r) / sqrt(M)
        lat = build_lattice(n, spacing, k0_transverse)
        direct = np.exp(1j * site_positions(lat) @ lat.kvecs.T) / np.sqrt(lat.n_sites)
        assert phases(lat).shape == direct.shape
        assert np.max(np.abs(phases(lat) - direct)) <= 1e-15

    @pytest.mark.parametrize("spacing", [1.0, 0.37, 2.5])
    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(lead=st_.lists(st_.integers(1, 3), max_size=2), complex_=st_.booleans(),
           seed=st_.integers(0, 2**32 - 1))
    def test_transforms_are_the_dense_rotation(self, n, k0_transverse, spacing, lead, complex_, seed):
        # U^H v and U u through the FFT, in place on a complex copy of v or u,
        # against the dense plane waves: each vector within 1e-15 of its norm
        lat, rng = build_lattice(n, spacing, k0_transverse), np.random.default_rng(seed)
        shape = tuple(lead) + (lat.dim,)
        vecs = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_ else 0.0)
        u = phases(lat)
        for transform, rot in ((lat.to_momentum, u.conj().T), (lat.from_momentum, u)):
            buf = np.array(vecs, dtype=complex)
            got, ref = transform(buf), momentum_rotate(vecs, rot)
            assert got is buf and got.shape == vecs.shape
            assert np.all(np.linalg.norm(got - ref, axis=-1) <= 1e-15 * np.linalg.norm(ref, axis=-1))

    def test_transforms_work_in_place_on_any_layout(self, n, k0_transverse):
        # a transposed or strided complex array is transformed in its own
        # memory, and a real one, which cannot hold the result, is refused
        lat, rng = build_lattice(n, 1.0, k0_transverse), np.random.default_rng(n)
        vecs = rng.standard_normal((2, lat.dim)) + 1j * rng.standard_normal((2, lat.dim))
        u = phases(lat)
        for transform, rot in ((lat.to_momentum, u.conj().T), (lat.from_momentum, u)):
            for view in (vecs.T.copy().T, np.stack([vecs, 0.0 * vecs], axis=-1)[..., 0]):
                assert transform(view) is view
                assert np.linalg.norm(view - momentum_rotate(vecs, rot)) <= 1e-15 * np.linalg.norm(vecs)
            with pytest.raises(TypeError):
                transform(vecs.real.copy())

    def test_momentum_basis_orthogonal(self, n, k0_transverse):
        f = momentum_basis(build_lattice(n, 1.0, k0_transverse))
        assert f.dtype == float
        assert np.max(np.abs(f.T @ f - np.eye(n**3))) <= 1e-13

    def test_transverse_basis_spans_projector(self, n, k0_transverse):
        lat = build_lattice(n, 1.0, k0_transverse)
        phi = transverse_basis(lat)
        assert np.max(np.abs(phi.T @ phi - np.eye(phi.shape[1])), initial=0.0) <= 1e-13
        assert np.max(np.abs(phi @ phi.T - transverse_matrix(lat))) <= 1e-13

    def test_transverse_columns_stay_in_their_sector(self, n, k0_transverse):
        # every column lies in the span of one slot group of the real frame, whose
        # coordinates there are the layout's, and each column is in one group
        lat = build_lattice(n, 1.0, k0_transverse)
        phi = transverse_basis(lat)
        for layout in (lat.sector_layout, lat.one_block):
            rot = real_basis(layout).T @ phi
            first, seen = 0, []
            for mine, coords in layout.transverse:
                inside = np.zeros(lat.dim, dtype=bool)
                inside[first:first + coords.shape[0]] = True
                assert np.max(np.abs(rot[np.ix_(inside, mine)] - coords), initial=0.0) <= 1e-13
                assert np.max(np.abs(rot[np.ix_(~inside, mine)]), initial=0.0) <= 1e-13
                assert np.all(np.diff(mine) > 0)
                seen.extend(mine.tolist())
                first += coords.shape[0]
            assert sorted(seen) == list(range(phi.shape[1]))


class TestProjectors:
    def test_single_site_transverse_is_identity(self):
        lat = build_lattice(1, 2.0)
        pt = TensorKernel(lat, transverse_matrix(lat) / lat.cell_volume)
        assert pt.allclose(TensorKernel.identity(lat))
        assert TensorKernel(lat, longitudinal_matrix(lat) / lat.cell_volume).norm() < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_idempotence_and_completeness(self, n):
        lat = build_lattice(n, 0.8)
        pt = TensorKernel(lat, transverse_matrix(lat) / lat.cell_volume)
        pl = TensorKernel(lat, longitudinal_matrix(lat) / lat.cell_volume)
        assert (pt @ pt).allclose(pt, tol=1e-13)
        assert (pl @ pl).allclose(pl, tol=1e-13) or pl.norm() < 1e-14
        assert (pt + pl).allclose(TensorKernel.identity(lat), tol=1e-13)
        assert (pt @ pl).norm() < 1e-12

    def test_hermitian(self):
        lat = build_lattice(2, 1.0)
        for mat in (transverse_matrix(lat), longitudinal_matrix(lat)):
            proj = TensorKernel(lat, mat / lat.cell_volume)
            assert proj.allclose(proj.conj().T, tol=1e-13)

    def test_trace_consistency_n2(self):
        # oracle: sum the 3x3 Fourier blocks directly
        lat = build_lattice(2, 1.0)
        total = TensorKernel(lat, transverse_matrix(lat) / lat.cell_volume) \
            + TensorKernel(lat, longitudinal_matrix(lat) / lat.cell_volume)
        block_sum = sum(3.0 for _ in range(lat.n_sites))  # tr(P_T + P_L) per k is 3
        assert np.trace(total.mat) == pytest.approx(block_sum / lat.cell_volume)

    def test_constant_field_has_no_longitudinal_part(self):
        lat = build_lattice(3, 1.0)
        v = np.tile([1.0, -2.0, 0.5], lat.n_sites)
        out = lat.cell_volume * TensorKernel(lat, longitudinal_matrix(lat) / lat.cell_volume).mat @ v
        assert np.linalg.norm(out) < 1e-12

    def test_k0_longitudinal_flag(self):
        lat = build_lattice(2, 1.0, k0_transverse=False)
        pl = TensorKernel(lat, longitudinal_matrix(lat) / lat.cell_volume)
        v = np.tile([1.0, 0.0, 0.0], lat.n_sites)
        out = lat.cell_volume * pl.mat @ v
        assert np.allclose(out, v)


class TestDoubleCurl:
    def test_annihilates_longitudinal_kernels(self):
        lat = build_lattice(2, 1.0)
        rng = np.random.default_rng(7)
        k = random_kernel(lat, rng) @ TensorKernel(lat, longitudinal_matrix(lat) / lat.cell_volume)
        assert TensorKernel(lat, -k.mat @ double_curl_matrix(lat)).norm() < 1e-11 * max(k.norm(), 1.0)

    def test_left_variant_annihilates_longitudinal_range(self):
        lat = build_lattice(2, 1.0)
        rng = np.random.default_rng(8)
        k = TensorKernel(lat, longitudinal_matrix(lat) / lat.cell_volume) @ random_kernel(lat, rng)
        assert TensorKernel(lat, -double_curl_matrix(lat) @ k.mat).norm() < 1e-11 * max(k.norm(), 1.0)

    def test_plane_wave_eigenvalue(self):
        lat = build_lattice(3, 1.0)
        kidx = 4  # some nonzero mode
        kvec = lat.kvecs[kidx]
        assert np.linalg.norm(kvec) > 0
        # transverse polarization for this mode
        pol = np.array([kvec[1], -kvec[0], 0.0])
        if np.linalg.norm(pol) < 1e-12:
            pol = np.array([0.0, kvec[2], -kvec[1]])
        pol = pol / np.linalg.norm(pol)
        wave = np.exp(-1j * site_positions(lat) @ kvec)
        mat = np.zeros((lat.dim, lat.dim), dtype=complex)
        col = (wave[:, None] * pol[None, :]).ravel()
        mat[:, :] = np.outer(np.ones(lat.dim), col.conj())
        kern = TensorKernel(lat, mat)
        out = TensorKernel(lat, -kern.mat @ double_curl_matrix(lat))
        ksq = float(kvec @ kvec)
        assert out.allclose(-ksq * kern, tol=1e-12)

    def test_identity_double_curl_matches_spectral_oracle(self):
        # assemble the operator by hand from Fourier blocks and compare
        lat = build_lattice(2, 1.3)
        oracle = np.zeros((lat.dim, lat.dim), dtype=complex)
        M = lat.n_sites
        for kidx in range(M):
            kvec = lat.kvecs[kidx]
            ksq = kvec @ kvec
            if ksq == 0:
                continue
            khat = kvec / np.sqrt(ksq)
            block = ksq * (np.eye(3) - np.outer(khat, khat))
            phase = np.exp(1j * (site_positions(lat) @ kvec))
            site_mat = np.outer(phase, phase.conj()) / M
            oracle += np.kron(site_mat, block)
        direct = TensorKernel(lat, -TensorKernel.identity(lat).mat @ double_curl_matrix(lat))
        assert np.allclose(direct.mat, -oracle / lat.cell_volume, atol=1e-12)
        # longitudinal-longitudinal block vanishes
        pl = TensorKernel(lat, longitudinal_matrix(lat) / lat.cell_volume)
        assert (pl @ direct @ pl).norm() < 1e-12

    def test_double_curl_commutes_with_transverse_projector(self):
        lat = build_lattice(2, 1.0)
        rng = np.random.default_rng(11)
        k = random_kernel(lat, rng)
        pt = TensorKernel(lat, transverse_matrix(lat) / lat.cell_volume)
        a = TensorKernel(lat, -(k @ pt).mat @ double_curl_matrix(lat))
        b = TensorKernel(lat, -k.mat @ double_curl_matrix(lat)) @ pt
        assert a.allclose(b, tol=1e-12)

    def test_curl_squared_equals_double_curl(self):
        lat = build_lattice(2, 1.0)
        c = TensorKernel(lat, curl_matrix(lat) / lat.cell_volume)
        assert (c @ c).allclose(TensorKernel(lat, double_curl_matrix(lat) / lat.cell_volume), tol=1e-12)


class TestKernelAlgebra:
    def test_identity_is_unit(self):
        lat = build_lattice(2, 0.6)
        rng = np.random.default_rng(3)
        k = random_kernel(lat, rng)
        ident = TensorKernel.identity(lat)
        assert (k @ ident).allclose(k)
        assert (ident @ k).allclose(k)

    def test_inverse(self):
        lat = build_lattice(2, 0.6)
        rng = np.random.default_rng(4)
        k = random_kernel(lat, rng)
        assert (k @ k.inv()).allclose(TensorKernel.identity(lat), tol=1e-10)

    def test_transpose_of_composition(self):
        lat = build_lattice(2, 1.0)
        rng = np.random.default_rng(5)
        a, b = random_kernel(lat, rng), random_kernel(lat, rng)
        assert (a @ b).T.allclose(b.T @ a.T)

    def test_pair_contract_matches_einsum(self):
        # the one-block layout contracts (…, n, d^2) site stacks, leading axes batched
        one = build_lattice(1, 1.0).one_block
        rng = np.random.default_rng(6)
        shape = (2, 7, 3, 3)
        a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
        w = rng.uniform(0.1, 1.0, shape[1])
        ref = np.einsum("m,kmab,mcb->kac", w, a, b[0])
        scale = np.linalg.norm(ref)
        got = sites(one, one.pair_contract(w, blocks(one, a), blocks(one, b[0])))
        assert np.linalg.norm(got - ref) <= 1e-14 * scale

    def test_rejects_nonfinite(self):
        lat = build_lattice(1, 1.0)
        bad = np.full((3, 3), np.nan)
        with pytest.raises(DampolError):
            TensorKernel(lat, bad)


class TestFrequencyGrid:
    def test_midpoint_invariants(self):
        grid = FrequencyGrid.midpoint(8, 4.0)
        assert grid.n_nodes == 8
        assert grid.weights.sum() == pytest.approx(4.0)
        assert np.all(grid.nodes > 0) and np.all(grid.nodes < 4.0)
        assert grid.eta == pytest.approx(2.0 * 0.5)

    def test_rejects_bad_grids(self):
        with pytest.raises(DampolError):
            FrequencyGrid(nodes=np.array([1.0, 0.5]), weights=np.array([1.0, 1.0]),
                          eta=0.1, omega_max=2.0)
        with pytest.raises(DampolError):
            FrequencyGrid.midpoint(0, 1.0)

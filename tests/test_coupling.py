import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from dampol.constants import EPS0, HBAR
from dampol.bath import polarization_selfenergy_kernel, require_invertible
from dampol.errors import DampolError, DegenerateCouplingError, ModelError, SingularOperatorError
from dampol.coupling import (
    builtin_model,
    check_constraints,
    coupling_from_lagrangian,
    spectral_moments,
    structure_tensor,
)
from dampol.fields import medium_momentum_form
from dampol.lattice import FrequencyGrid, build_lattice
from dampol.susceptibility import verify_sum_rules

from reference import (
    RealCoupling,
    TensorKernel,
    _assemble,
    blocks,
    coupling_from_real,
    from_kernels,
    gram_stack,
    random_coupling,
    site_positions,
    sites,
    zero_coupling,
)


def pernode_reality_residual(coupling):
    """Largest per-node imaginary part of the spectral density, relative.

    Lagrangian-built couplings satisfy this stronger per-node condition at
    machine precision, which implies both quadrature constraints.
    """
    dens = dense_density(coupling)
    num = np.linalg.norm(dens.imag, axis=(1, 2))
    den = np.maximum(np.linalg.norm(dens, axis=(1, 2)), 1e-300)
    return float(np.max(num / den))


def site_kernels(coupling):
    """The coupling's (K, d, d) site kernels, its blocks rotated back to sites: the dense reference."""
    return sites(coupling.layout, coupling.flat)


def dense_density(coupling):
    """The dense reference of the spectral densities, v gram_stack(T), (K, d, d)."""
    return coupling.lattice.cell_volume * gram_stack(site_kernels(coupling))


def dense_structure(st):
    """The structure tensor as one (d, d) site matrix."""
    return sites(st.layout, st.blocks)


def identity_gauge(lattice, grid):
    """The identity gauge I/v at every node, as an explicit (K, d, d) stack."""
    return np.broadcast_to(np.eye(lattice.dim) / lattice.cell_volume, (grid.n_nodes, lattice.dim, lattice.dim))


def min_image_sq_dist(lattice):
    """(M, M) squared minimum-image distances on the periodic lattice."""
    period = lattice.n_per_axis * lattice.spacing
    diff = np.abs(site_positions(lattice)[:, None, :] - site_positions(lattice)[None, :, :])
    diff = np.minimum(diff, period - diff)
    return np.einsum("ijk,ijk->ij", diff, diff)


def dense_model_t0(name, lattice, grid, params=None):
    """The (K, d, d) coefficient kernels of a built-in model, built in site space.

    The dense reference of the symbol route: the identity, diag(scale) on
    every site, or the minimum-image Gaussian kernel, times the model's
    line shape.
    """
    params = dict(params or {})
    tau = builtin_model(name, lattice, grid, params).tau
    v = lattice.cell_volume
    if name == "local_lorentz":
        base = np.eye(lattice.dim) / v
    elif name == "uniaxial_local":
        scale = np.ones(3)
        scale["xyz".index(params.get("axis", "z"))] = params.get("ratio", 2.0)
        base = np.kron(np.eye(lattice.n_sites), np.diag(scale)) / v
    else:
        corr = params.get("corr_length", 0.75 * lattice.spacing)
        base = np.kron(np.exp(-min_image_sq_dist(lattice) / (2.0 * corr**2)), np.eye(3)) / v
    return tau[:, None, None] * base[None, :, :]


def model_t0(model, k):
    """The dense coefficient kernel of a built-in model at node k, assembled from its symbols."""
    return model.tau[k] * _assemble(model.lattice, model.symbols).real


def scalar_coupling(lattice, grid, tau):
    """Coupling kernels tau * identity at every node (direct construction)."""
    d = lattice.dim
    kern = np.broadcast_to(tau * np.eye(d) / lattice.cell_volume, (grid.n_nodes, d, d))
    return from_kernels(lattice, grid, kern.astype(complex).copy())


class TestLagrangianRoute:
    def test_zero_input_gives_zero_coupling(self, single_site):
        grid = FrequencyGrid.midpoint(4, 2.0)
        t0 = np.zeros((4, 3, 3))
        built = coupling_from_real(RealCoupling(single_site, grid, t0, identity_gauge(single_site, grid)))
        assert not np.any(site_kernels(built))

    def test_identity_gauge_scalar_formula(self, single_site):
        # single node, single site, scalar real coefficient
        grid = FrequencyGrid.midpoint(1, 2.0)
        tau = 0.7
        t0 = tau * np.eye(3)[None, :, :] / single_site.cell_volume
        built = coupling_from_real(RealCoupling(single_site, grid, t0, identity_gauge(single_site, grid)))
        expected = -((2.0 * HBAR * grid.nodes[0]) ** -0.5) * tau * np.eye(3) / single_site.cell_volume
        assert np.allclose(site_kernels(built)[0], expected)

    def test_random_gauge_density_is_real_per_node(self, small_lattice, rng):
        grid = FrequencyGrid.midpoint(6, 5.0)
        built = coupling_from_real(random_coupling(small_lattice, grid, rng))
        assert pernode_reality_residual(built) < 1e-12

    def test_rejects_non_unitary_gauge(self, single_site):
        grid = FrequencyGrid.midpoint(2, 2.0)
        t0 = np.ones((2, 3, 3))
        bad = 2.0 * np.eye(3)[None, :, :].repeat(2, axis=0).astype(complex)
        with pytest.raises(DampolError):
            RealCoupling(lattice=single_site, grid=grid, t0=t0, unitary=bad)


class TestGaugeAndGram:
    @pytest.mark.parametrize("name", ["local_lorentz", "uniaxial_local", "gaussian_nonlocal"])
    def test_implicit_identity_gauge_matches_dense(self, small_lattice, grid12, name):
        # the symbol route, whose identity gauge is implicit, against the dense
        # site kernels with an explicit gauge, split into the sector blocks
        model = builtin_model(name, small_lattice, grid12)
        dense = RealCoupling(lattice=small_lattice, grid=grid12, t0=dense_model_t0(name, small_lattice, grid12),
                             unitary=identity_gauge(small_lattice, grid12))
        built, ref = coupling_from_lagrangian(model), coupling_from_real(dense)
        assert built.sector_leak == 0.0
        assert built.layout is ref.layout is small_lattice.sector_layout
        assert np.linalg.norm(built.flat - ref.flat) <= 1e-14 * np.linalg.norm(ref.flat)

    def test_gram_products_match_einsum(self, small_lattice, grid12, rng):
        model = random_coupling(small_lattice, grid12, rng)
        built = coupling_from_real(model)
        # the unitarity Gram of the gauge, and the spectral densities
        for fast, stack, scale in ((gram_stack(model.unitary), model.unitary, 1.0),
                                   (dense_density(built), site_kernels(built), small_lattice.cell_volume)):
            ref = scale * np.einsum("kji,kjl->kil", stack, stack.conj())
            assert np.linalg.norm(fast - ref) <= 1e-14 * np.linalg.norm(ref)


class TestConstraints:
    def test_zero_coupling_residuals_vanish(self, small_lattice):
        grid = FrequencyGrid.midpoint(4, 3.0)
        report = check_constraints(zero_coupling(small_lattice, grid))
        assert report.moment0 == 0.0 and report.moment2 == 0.0
        assert report.passed

    def test_lagrangian_coupling_passes(self, random_lagrangian):
        report = check_constraints(random_lagrangian)
        assert report.passed
        assert report.moment0 <= 1e-12 * report.scale
        assert report.moment2 <= 1e-12 * report.scale

    def test_violator_is_detected(self, single_site):
        # imaginary asymmetric kernel at one node breaks the zeroth moment
        grid = FrequencyGrid.midpoint(3, 3.0)
        kern = np.zeros((3, 3, 3), dtype=complex)
        kern[1] = np.eye(3) + 0.3j * np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        report = check_constraints(from_kernels(single_site, grid, kern))
        assert not report.passed
        assert report.moment0 > 0


class TestStructureTensor:
    def test_single_node_scalar_value(self, single_site):
        grid = FrequencyGrid.midpoint(1, 2.0)
        tau = 0.9 + 0.2j
        coupling = scalar_coupling(single_site, grid, tau)
        st = structure_tensor(coupling)
        expected = 2.0 * grid.weights[0] * grid.nodes[0] * abs(tau) ** 2 * np.eye(3) / single_site.cell_volume
        assert np.allclose(dense_structure(st), expected)

    def test_zero_coupling_fails(self, small_lattice):
        grid = FrequencyGrid.midpoint(4, 3.0)
        with pytest.raises(DegenerateCouplingError):
            structure_tensor(zero_coupling(small_lattice, grid))

    def test_symmetry(self, random_lagrangian):
        mat = dense_structure(structure_tensor(random_lagrangian))
        assert np.linalg.norm(mat - mat.T) <= 1e-12 * np.linalg.norm(mat)

    def test_positive_definite_on_builtins(self, small_lattice, grid12):
        for name in ("local_lorentz", "uniaxial_local", "gaussian_nonlocal"):
            built = coupling_from_lagrangian(builtin_model(name, small_lattice, grid12))
            st = structure_tensor(built)
            evals = np.linalg.eigvalsh(dense_structure(st))
            assert evals[0] > 0
            assert np.allclose(st.eigenvalues, evals, rtol=0, atol=1e-13 * evals[-1])

    def test_matches_first_moment_quadrature(self, random_lagrangian):
        # independent oracle: loop-accumulated quadrature of the density
        grid = random_lagrangian.grid
        acc = np.zeros_like(site_kernels(random_lagrangian)[0])
        for k in range(grid.n_nodes):
            dens = dense_density(random_lagrangian)[k]
            acc = acc + grid.weights[k] * grid.nodes[k] * (dens + dens.conj())
        st = structure_tensor(random_lagrangian)
        assert np.allclose(dense_structure(st), acc.real, atol=1e-12 * np.linalg.norm(acc))


class TestMomentumKernel:
    def test_single_site_scalar(self, single_site):
        grid = FrequencyGrid.midpoint(1, 2.0)
        tau = 1.3
        coupling = scalar_coupling(single_site, grid, tau)
        st = structure_tensor(coupling)
        # the momentum form's kernel -w T(w) o F^-1 at the one node
        kernel = TensorKernel(single_site, sites(coupling.layout, medium_momentum_form(coupling, st).alpha)[0].T)
        # -w tau / (2 w w1 |tau|^2) times the identity kernel
        expected = -tau / (2.0 * grid.weights[0] * abs(tau) ** 2)
        ident = TensorKernel.identity(single_site)
        assert kernel.allclose(expected * ident, tol=1e-12)

    def test_requires_positive_definite_structure(self, small_lattice):
        grid = FrequencyGrid.midpoint(4, 3.0)
        with pytest.raises(DegenerateCouplingError):
            structure_tensor(zero_coupling(small_lattice, grid))


class TestBuiltinModels:
    def test_local_lorentz_isotropic_single_site(self, single_site):
        grid = FrequencyGrid.midpoint(8, 6.0)
        model = builtin_model("local_lorentz", single_site, grid)
        for k in range(grid.n_nodes):
            t0 = model_t0(model, k)
            d = np.diagonal(t0)
            assert np.allclose(d, d[0])
            assert np.allclose(t0, np.diag(d))

    def test_uniaxial_ratio_squares_in_structure(self, single_site):
        grid = FrequencyGrid.midpoint(8, 6.0)
        model = builtin_model("uniaxial_local", single_site, grid, {"axis": "z", "ratio": 2.0})
        built = coupling_from_lagrangian(model)
        st = structure_tensor(built)
        mat = dense_structure(st)
        assert mat[2, 2] == pytest.approx(4.0 * mat[0, 0])

    def test_gaussian_offsite_vanishes_as_length_shrinks(self, small_lattice, grid12):
        tight = builtin_model("gaussian_nonlocal", small_lattice, grid12, {"corr_length": 0.05})
        t0 = model_t0(tight, grid12.n_nodes // 2)
        offsite = t0.copy()
        for s in range(small_lattice.n_sites):
            offsite[3 * s: 3 * s + 3, 3 * s: 3 * s + 3] = 0.0
        assert np.linalg.norm(offsite) < 1e-12 * np.linalg.norm(t0)

    def test_gaussian_has_spatial_dispersion(self, small_lattice, grid12):
        model = builtin_model("gaussian_nonlocal", small_lattice, grid12, {"corr_length": 0.9})
        t0 = model_t0(model, grid12.n_nodes // 2)
        assert abs(t0[0, 3]) > 1e-6 or abs(t0[0, 4]) > 1e-6 or abs(t0[0, 5]) > 1e-6

    def test_unknown_model_and_bad_params(self, small_lattice, grid12):
        with pytest.raises(ModelError):
            builtin_model("nope", small_lattice, grid12)
        with pytest.raises(ModelError):
            builtin_model("gaussian_nonlocal", small_lattice, grid12, {"corr_length": -1.0})
        with pytest.raises(ModelError):
            builtin_model("local_lorentz", small_lattice, grid12, {"bogus": 1.0})


class TestInvertibility:
    def test_builtin_nodes_invertible(self, lorentz_coupling):
        for coupling in (lorentz_coupling, lorentz_coupling.relaid(lorentz_coupling.lattice.one_block)):
            require_invertible(coupling.layout, ("coupling kernel", coupling.flat,
                                                 coupling.layout.inv_or_nan(coupling.flat)))

    def test_zero_singular_value_detected(self, single_site):
        layout = single_site.one_block
        with pytest.raises(SingularOperatorError, match="coupling kernel not invertible at node 0") as exc:
            stack = blocks(layout, np.diag([1.0, 1.0, 0.0])[None])
            require_invertible(layout, ("coupling kernel", stack, layout.inv_or_nan(stack)))
        assert exc.value.node == 0 and exc.value.cond > 1e10


def einsum_moment_reference(coupling, structure):
    """The per-consumer float64 node sums the moments evaluator replaced.

    Returns the constraint residuals, the structure tensor, the sum-rule
    residuals for the given structure tensor, and the self-energy kernel.
    """
    grid, dens, v = coupling.grid, dense_density(coupling), coupling.lattice.cell_volume
    w, nodes = grid.weights, grid.nodes
    imbalance = dens - dens.conj()
    m0 = v * np.linalg.norm(np.einsum("k,kij->ij", w, imbalance))
    m2 = v * np.linalg.norm(np.einsum("k,kij->ij", w * nodes**2, imbalance))
    s_mat = np.einsum("k,kij->ij", w * nodes, dens + dens.conj()).real
    disc = (2.0j * np.pi * HBAR / EPS0) * dens
    even, odd = disc + disc.conj(), disc - disc.conj()
    target1 = (2.0j * np.pi * HBAR / EPS0) * dense_structure(structure)
    scale = np.linalg.norm(target1)
    rules = (np.linalg.norm(np.einsum("k,kij->ij", w, even)) / scale,
             np.linalg.norm(np.einsum("k,kij->ij", w * nodes, odd) - target1) / scale,
             np.linalg.norm(np.einsum("k,kij->ij", w * nodes**2, even)) / scale
             / max(grid.omega_max**2, 1.0))
    finv = TensorKernel(coupling.lattice, dense_structure(structure)).inv()
    xi = TensorKernel(coupling.lattice, (2.0j * np.pi * HBAR / EPS0) * np.einsum(
        "l,lab->ab", w * nodes**3, dens))
    selfenergy = (EPS0 / (2.0j * np.pi * HBAR**2)) * (finv @ xi @ finv)
    return (m0, m2), s_mat, rules, selfenergy


class TestSpectralMoments:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(n_nodes=st_.integers(1, 6), seed=st_.integers(0, 2**32 - 1))
    def test_consumers_match_einsum_formulas(self, n_nodes, seed):
        # a Lagrangian coupling, whose constraints and sum rules close to
        # round-off, and complex kernels that break them
        lattice = build_lattice(1, 1.0)
        grid = FrequencyGrid.midpoint(n_nodes, 3.0)
        rng = np.random.default_rng(seed)
        lagrangian = coupling_from_real(random_coupling(lattice, grid, rng))
        shape = (n_nodes, lattice.dim, lattice.dim)
        violator = from_kernels(lattice, grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        eps = np.finfo(float).eps

        def close(new, ref, size):
            # 1e-12 relative, or absolute round-off at the quantity's size
            return abs(new - ref) <= 1e-12 * abs(ref) + 64 * eps * size

        for coupling in (lagrangian, violator):
            st = structure_tensor(coupling)
            (m0, m2), s_mat, rules, selfenergy = einsum_moment_reference(coupling, st)
            report = check_constraints(coupling)
            assert close(report.moment0, m0, report.scale)
            assert close(report.moment2, m2, report.scale)
            assert np.linalg.norm(dense_structure(st) - s_mat) <= 1e-12 * np.linalg.norm(s_mat)
            got = verify_sum_rules(coupling, st)
            for new, ref in zip((got.moment0, got.moment1, got.moment2), rules):
                assert close(new, ref, 1.0)
            diff = sites(st.layout, polarization_selfenergy_kernel(coupling, st)) - selfenergy.mat
            assert np.linalg.norm(diff) <= 1e-12 * np.linalg.norm(selfenergy.mat)
        assert not check_constraints(violator).passed


def dense_reference(coupling, kernels):
    """Every coupling-derived operator from a dense (K, d, d) stack of the coupling's kernels in the one block.

    Returns the densities v T^T conj(T), the moments of `spectral_moments`
    over them, and the structure tensor, its inverse and the self-energy as
    (d, d) matrices in the basis of `kernels`, kron(U, I_3): there the
    transpose and the conjugate of an operator are the matrix's with rows
    and columns both taken at -q.
    """
    lattice, v, grid, d = coupling.lattice, coupling.lattice.cell_volume, coupling.grid, coupling.lattice.dim
    mirror = (3 * lattice._conjugate[:, None] + np.arange(3)).ravel()
    at_minus_q = np.ix_(mirror, mirror)
    dens = v * np.stack([t.T[at_minus_q] @ t.conj()[at_minus_q] for t in kernels])
    mom = spectral_moments(grid.nodes, grid.weights, dens.reshape(-1, d * d), lattice.one_block)
    mom = type(mom)(*(x.reshape(d, d) for x in vars(mom).values()))
    s_mat = mom.structure
    s_inv = np.linalg.inv(s_mat) / v**2
    selfenergy = v**2 * (s_inv @ mom.cubic @ s_inv) / HBAR
    return dens, mom, s_mat, s_inv, selfenergy


class TestBlockRouteMatchesDense:
    @settings(max_examples=24, deadline=None, derandomize=True, database=None)
    @given(n=st_.integers(1, 4), model=st_.sampled_from(["local_lorentz", "uniaxial_local",
                                                          "gaussian_nonlocal", "random"]),
           n_nodes=st_.integers(1, 6), seed=st_.integers(0, 2**32 - 1))
    def test_density_moments_and_structure(self, n, model, n_nodes, seed):
        # the built-in models conserve lattice momentum and run per sector; a
        # random coupling leaks, beyond one site, and runs as one dense block
        lattice = build_lattice(n, 1.0)
        grid = FrequencyGrid.midpoint(n_nodes, 3.0)
        if model == "random":
            coupling = coupling_from_real(random_coupling(lattice, grid, np.random.default_rng(seed)))
        else:
            coupling = coupling_from_lagrangian(builtin_model(model, lattice, grid))
        layout = coupling.layout
        assert layout is (lattice.one_block if model == "random" and n > 1 else lattice.sector_layout)
        # the reference runs dense in the momentum basis, where the coupling
        # re-laid into the one block holds its entries unrotated: an inverse
        # amplifies the rounding of a change of basis by the condition number
        # of S (5.2e5 for the Gaussian model at n = 4, which leaves 1.5e-11
        # between a site-basis inverse and the blocks')
        d, one = lattice.dim, lattice.one_block
        dens, mom, s_mat, s_inv, selfenergy = dense_reference(coupling, coupling.relaid(one).flat.reshape(-1, d, d))
        st = structure_tensor(coupling)
        assert st.layout is layout

        def close(got, ref, scale=None):
            # in the dense block, where an entry of the reference outside the layout counts too
            got, ref = layout.relay(got, one), ref.reshape(ref.shape[:-2] + (d * d,))
            scale = np.linalg.norm(ref) if scale is None else scale
            return np.linalg.norm(got - ref) <= 1e-13 * scale

        # the densities also against the site-basis Gram, through the rotation
        site = blocks(layout, dense_density(coupling))
        assert np.linalg.norm(coupling.density - site) <= 1e-13 * np.linalg.norm(site)
        assert close(coupling.density, dens)
        # each moment field against the dense one, relative to the moment it is part of
        s0, s1 = np.linalg.norm(mom.imag0), np.linalg.norm(s_mat)
        assert close(coupling.moments.imag0, mom.imag0, max(s0, np.linalg.norm(
            np.einsum("k,kab->ab", grid.weights, dens))))
        assert close(coupling.moments.structure, mom.structure)
        assert close(coupling.moments.structure_lo, mom.structure_lo, s1)
        assert close(coupling.moments.imag2, mom.imag2, np.linalg.norm(
            np.einsum("k,kab->ab", grid.weights * grid.nodes**2, dens)))
        assert close(coupling.moments.cubic, mom.cubic)
        assert close(st.blocks, s_mat)
        assert close(st.inverse, s_inv)
        assert close(polarization_selfenergy_kernel(coupling, st), selfenergy)


def test_an_uneven_model_symbol_is_refused(monkeypatch):
    # the Gaussian symbol without its reflection average: the FFT rounds q and
    # -q apart at n = 6, so the model is not real and `builtin_model` says which
    import dampol.coupling as coupling_module

    def uneven(lattice, corr):
        n = lattice.n_per_axis
        idx = np.indices((n, n, n))
        dist = np.minimum(idx, n - idx) * lattice.spacing
        return np.fft.fftn(np.exp(-np.einsum("i...,i...->...", dist, dist) / (2.0 * corr**2))).real.ravel()

    lattice, grid = build_lattice(6, 0.37), FrequencyGrid.midpoint(4, 3.0)
    builtin_model("gaussian_nonlocal", lattice, grid)
    monkeypatch.setattr(coupling_module, "_gaussian_symbol", uneven)
    with pytest.raises(DampolError, match="the gaussian_nonlocal model's symbol is not even in k"):
        builtin_model("gaussian_nonlocal", lattice, grid)

"""Exact bits of the reconstruct -> criteria_report path on four fixed sets, of
propagate_errors on those sets and three more, and of the loss fit on four fixed
states.

Every float is pinned by its repr, so any change to the arithmetic, its order
or its checks that moves a last bit fails here; a deliberate change re-pins.
"""

import warnings

import pytest

from cvsteer import (MeasurementSet, SourceParams, build_epr_source, criteria_report,
                     fit_efficiency, reconstruct)
from cvsteer.reconstruction import propagate_errors
from cvsteer.reference import REFERENCE_MEASUREMENTS, reference_state

GOLDEN = {
    "reference": (
        REFERENCE_MEASUREMENTS,
        [],
        "[[18.41, 0.0, 18.09, 0.0], [0.0, 35.49, 0.0, -34.95], "
        "[18.09, 0.0, 17.98, 0.0], [0.0, -34.95, 0.0, 34.61]]",
        "{'reid_b_given_a': 0.03920781853002614, 'reid_a_given_b': 0.04116623800112929, "
        "'duan_sum': 0.4099999999999895, 'unit_gain_product': 0.04199999999999778, "
        "'optimal_gains_b_given_a': {'g_x': 0.9826181423139598, 'g_p': -0.9847844463229078}, "
        "'optimal_gains_a_given_b': {'g_x': 1.0061179087875416, 'g_p': -1.0098237503611673}, "
        "'conditional_variances': {'x_b_given_a': 0.20443780554047208, "
        "'p_b_given_a': 0.19178360101436454, 'x_a_given_b': 0.2093270300333714, "
        "'p_a_given_b': 0.19665992487719564}, 'steering_b_given_a': True, "
        "'steering_a_given_b': True, 'duan_inseparable': True, "
        "'conditional_uncertainty_ratio': 0.19800964251779796}",
    ),
    # below the symplectic boundary: reconstructed with a PhysicalityWarning that names
    # the closed form's eigenvalues, sqrt(0.4375) each
    "warned": (
        MeasurementSet(1.0, 1.0, 1.0, 1.0, 0.5, 0.5),
        ["reconstruct: state is unphysical (symplectic eigenvalues "
         "[0.6614378277661477, 0.6614378277661477])"],
        "[[1.0, 0.0, 0.75, 0.0], [0.0, 1.0, 0.0, -0.75], "
        "[0.75, 0.0, 1.0, 0.0], [0.0, -0.75, 0.0, 1.0]]",
        "{'reid_b_given_a': 0.19140625, 'reid_a_given_b': 0.19140625, 'duan_sum': 1.0, "
        "'unit_gain_product': 0.25, 'optimal_gains_b_given_a': {'g_x': 0.75, 'g_p': -0.75}, "
        "'optimal_gains_a_given_b': {'g_x': 0.75, 'g_p': -0.75}, "
        "'conditional_variances': {'x_b_given_a': 0.4375, 'p_b_given_a': 0.4375, "
        "'x_a_given_b': 0.4375, 'p_a_given_b': 0.4375}, 'steering_b_given_a': True, "
        "'steering_a_given_b': True, 'duan_inseparable': True, "
        "'conditional_uncertainty_ratio': 0.4375}",
    ),
    # |Cov_x| is past its rounded bound sqrt(Var X_A) sqrt(Var X_B) but inside its
    # error band, and the Cholesky check passes; the closed form clamps nu_lo^2 at 0
    "near_bound": (
        MeasurementSet(1.004522916136638, 1.0, 3.228692473583337, 1.0, 0.6313849779030343, 2.0),
        ["reconstruct: state is unphysical (symplectic eigenvalues "
         "[2.05747791961906, 0.0])"],
        "[[1.004522916136638, 0.0, 1.8009152059084705, 0.0], [0.0, 1.0, 0.0, 0.0], "
        "[1.8009152059084705, 0.0, 3.228692473583337, 0.0], [0.0, 0.0, 0.0, 1.0]]",
        "{'reid_b_given_a': 0.0, 'reid_a_given_b': -4.440892098500626e-16, "
        "'duan_sum': 2.631384977903034, 'unit_gain_product': 1.2627699558060677, "
        "'optimal_gains_b_given_a': {'g_x': 1.7928064924937013, 'g_p': 0.0}, "
        "'optimal_gains_a_given_b': {'g_x': 0.5577846823887008, 'g_p': 0.0}, "
        "'conditional_variances': {'x_b_given_a': 0.0, 'p_b_given_a': 1.0, "
        "'x_a_given_b': -4.440892098500626e-16, 'p_a_given_b': 1.0}, "
        "'steering_b_given_a': True, 'steering_a_given_b': True, 'duan_inseparable': True, "
        "'conditional_uncertainty_ratio': 0.0}",
    ),
    # the noise-free campaign of r1 = r2 = 2.3 (20 dB), eta_prep 0.95, eta_det 0.97
    "r_2.3": (
        MeasurementSet(45.92052981534033, 45.92052981534033, 45.92052981534033,
                       45.92052981534033, 0.17552553327736575, 0.17552553327736575,
                       relative_error=0.01),
        [],
        "[[45.92052981534033, 0.0, 45.83276704870165, 0.0], "
        "[0.0, 45.92052981534033, 0.0, -45.83276704870165], "
        "[45.83276704870165, 0.0, 45.92052981534033, 0.0], "
        "[0.0, -45.83276704870165, 0.0, 45.92052981534033]]",
        "{'reid_b_given_a': 0.030750358767448603, 'reid_a_given_b': 0.030750358767448603, "
        "'duan_sum': 0.3510510665547315, 'unit_gain_product': 0.03080921283230363, "
        "'optimal_gains_b_given_a': {'g_x': 0.9980888119760029, 'g_p': -0.9980888119760029}, "
        "'optimal_gains_a_given_b': {'g_x': 0.9980888119760029, 'g_p': -0.9980888119760029}, "
        "'conditional_variances': {'x_b_given_a': 0.1753578021288149, "
        "'p_b_given_a': 0.1753578021288149, 'x_a_given_b': 0.1753578021288149, "
        "'p_a_given_b': 0.1753578021288149}, 'steering_b_given_a': True, "
        "'steering_a_given_b': True, 'duan_inseparable': True, "
        "'conditional_uncertainty_ratio': 0.1753578021288149}",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reconstruct_and_report_bits(name):
    ms, messages, entries, report = GOLDEN[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state = reconstruct(ms)
    assert [str(w.message) for w in caught] == messages
    assert repr(state.entries.tolist()) == entries
    assert repr(criteria_report(state).to_dict()) == report


# propagate_errors(ms).tolist() by repr, for each GOLDEN set and three more
ERRORS_GOLDEN = {
    "reference": (
        REFERENCE_MEASUREMENTS,
        "[[0.9205000000000001, 0.0, 0.6433567245315776, 0.0], "
        "[0.0, 1.7745000000000002, 0.0, 1.2393123597382543], "
        "[0.6433567245315776, 0.0, 0.899, 0.0], [0.0, 1.2393123597382543, 0.0, 1.7305000000000001]]",
    ),
    "warned": (
        GOLDEN["warned"][0],
        "[[0.05, 0.0, 0.037500000000000006, 0.0], [0.0, 0.05, 0.0, 0.037500000000000006], "
        "[0.037500000000000006, 0.0, 0.05, 0.0], [0.0, 0.037500000000000006, 0.0, 0.05]]",
    ),
    "near_bound": (
        GOLDEN["near_bound"][0],
        "[[0.05022614580683191, 0.0, 0.08599479769272005, 0.0], "
        "[0.0, 0.05, 0.0, 0.06123724356957946], "
        "[0.08599479769272005, 0.0, 0.16143462367916686, 0.0], "
        "[0.0, 0.06123724356957946, 0.0, 0.05]]",
    ),
    "r_2.3": (
        GOLDEN["r_2.3"][0],
        "[[0.45920529815340333, 0.0, 0.3247083663172214, 0.0], "
        "[0.0, 0.45920529815340333, 0.0, 0.3247083663172214], "
        "[0.3247083663172214, 0.0, 0.45920529815340333, 0.0], "
        "[0.0, 0.3247083663172214, 0.0, 0.45920529815340333]]",
    ),
    # the squares leave the float range: both covariance bands are inf
    "overflow": (
        MeasurementSet(1e160, 1e160, 1e160, 1e160, 1e159, 1e159),
        "[[5.000000000000001e+158, 0.0, inf, 0.0], [0.0, 5.000000000000001e+158, 0.0, inf], "
        "[inf, 0.0, 5.000000000000001e+158, 0.0], [0.0, inf, 0.0, 5.000000000000001e+158]]",
    ),
    # subnormal values and squares
    "subnormal": (
        MeasurementSet(3e-160, 1e-310, 7e-161, 5e-320, 4e-161, 2.5e-161, relative_error=0.3),
        "[[9e-161, 0.0, 4.658522672862799e-161, 0.0], [0.0, 3e-311, 0.0, 3.686028385760788e-162], "
        "[4.658522672862799e-161, 0.0, 2.1e-161, 0.0], [0.0, 3.686028385760788e-162, 0.0, 1.5e-320]]",
    ),
    # both bands move in the last bit if (rel * v) ** 2 is taken as a product
    "last_bit": (
        MeasurementSet(49.35, 8.93, 28.14, 8.39, 44.69, 49.35),
        "[[2.4675000000000002, 0.0, 1.8070138004453646, 0.0], "
        "[0.0, 0.4465, 0.0, 1.2712099305386189], "
        "[1.8070138004453646, 0.0, 1.407, 0.0], [0.0, 1.2712099305386189, 0.0, 0.41950000000000004]]",
    ),
}


@pytest.mark.parametrize("name", sorted(ERRORS_GOLDEN))
def test_propagate_errors_bits(name):
    ms, errors = ERRORS_GOLDEN[name]
    assert repr(propagate_errors(ms).tolist()) == errors


# fit_efficiency(state).to_dict() by repr
FIT_GOLDEN = {
    "reference": (
        reference_state,
        "{'xi': 0.9149490432448453, 'r1': 2.168083187908934, 'r2': 1.8389723805851457, "
        "'residual': 0.24489295057898208, 'iterations': 46, 'converged': True}",
    ),
    # a pure state: the minimum sits on the scan bound xi = 1
    "pure": (
        lambda: build_epr_source(SourceParams(r1=1.2, r2=1.0, eta_prep=1.0)),
        "{'xi': 1.0, 'r1': 1.2, 'r2': 1.0, 'residual': 5.379321278230016e-16, 'iterations': 41, 'converged': True}",
    ),
    "r_2.3": (
        lambda: reconstruct(GOLDEN["r_2.3"][0]),
        "{'xi': 0.9215000000000041, 'r1': 2.2999999999999976, 'r2': 2.2999999999999976, "
        "'residual': 3.5197539327569416e-15, 'iterations': 45, 'converged': True}",
    ),
    # the campaign of r1 = 1.2, r2 = 1.1, eta_prep 0.9, each value jittered by about 1%
    "jittered": (
        lambda: reconstruct(MeasurementSet(4.221670119536361, 5.104852087829115,
                                           4.064030095302689, 5.065599460491648,
                                           0.3593765182470045, 0.40056046121774797,
                                           relative_error=0.01)),
        "{'xi': 0.902048041055972, 'r1': 1.196406383516334, 'r2': 1.0917674471533645, "
        "'residual': 0.04061490002488878, 'iterations': 45, 'converged': True}",
    ),
}


@pytest.mark.parametrize("name", sorted(FIT_GOLDEN))
def test_fit_bits(name):
    state, fit = FIT_GOLDEN[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert repr(fit_efficiency(state()).to_dict()) == fit

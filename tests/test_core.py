import math

import numpy as np
import pytest

from pilotadapt.core import (
    FadingSpec,
    Numerology,
    UserPopulation,
    build_population,
    lte_numerology,
)
from pilotadapt.errors import ConfigurationError


def test_lte_numerology_re_count():
    num = lte_numerology()
    assert num.res_per_rb == 14 * 12 == 168


def test_numerology_rejects_bad_dimensions():
    with pytest.raises(ConfigurationError):
        Numerology(1e-3 / 14, 15e3, 0, 12)
    with pytest.raises(ConfigurationError):
        Numerology(-1.0, 15e3, 14, 12)


def test_equal_group_population():
    # 16 users, 4 per group, all at the same gain: snr = eta*P/sigma2 = 10 dB
    # with P = 1, sigma2 = 0.1
    pop = build_population([4, 4, 4, 4], FadingSpec(kind="constant", value=1.0), seed=3)
    assert pop.num_users == 16
    assert [len(g) for g in pop.groups] == [4, 4, 4, 4]
    assert pop.gains == (1.0,) * 16


def test_single_user_population():
    pop = build_population([1], FadingSpec(), seed=0)
    assert pop.num_users == pop.num_groups == 1
    assert pop.groups == ((0,),)


def test_partition_property():
    pop = build_population([3, 5, 2], FadingSpec(kind="lognormal", spread_db=4.0), seed=2)
    assert pop.groups == ((0, 1, 2), (3, 4, 5, 6, 7), (8, 9))
    assert pop.num_users == len(pop.gains) == 10
    assert len(set(pop.gains)) == 10


@pytest.mark.parametrize(
    "groups, gains",
    [
        (((7, 3, 5),), (1.0, 1.0, 1.0)),  # users must be 0..K-1
        (((0, 1), (1,)), (1.0, 1.0)),  # user 1 in two groups
        (((0,),), (1.0, 1.0)),  # user 1 in none
        (((0,), (1,)), (1.0, math.nan)),
        (((0, 1),), (1.0, math.inf)),
        (((0, 1),), (0.0, 1.0)),
        ((), ()),  # K = 0
    ],
)
def test_population_refuses_bad_groups_and_gains(groups, gains):
    with pytest.raises(ConfigurationError):
        UserPopulation(groups=groups, gains=gains)


def test_population_reproducible():
    spec = FadingSpec(kind="lognormal", spread_db=6.0)
    a = build_population([4, 4], spec, seed=11)
    b = build_population([4, 4], spec, seed=11)
    assert a.gains == b.gains


def test_empty_population_rejected():
    with pytest.raises(ConfigurationError):
        build_population([], FadingSpec(), seed=0)
    with pytest.raises(ConfigurationError):
        build_population([0, 0], FadingSpec(), seed=0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"value": math.nan}, "fading value must be finite and positive"),
        ({"value": math.inf}, "fading value must be finite and positive"),
        ({"kind": "explicit", "values": (1.0, math.nan)}, "fading values must be finite"),
    ],
)
def test_fading_spec_names_the_bad_field(kwargs, message):
    with pytest.raises(ConfigurationError, match=message):
        FadingSpec(**kwargs)


def test_fading_spec_means():
    assert FadingSpec(kind="constant", value=2.0).mean() == 2.0
    assert FadingSpec(kind="explicit", values=(0.5, 2.0)).mean() == 1.25
    # lognormal mean has the exp(s^2/2) correction
    spec = FadingSpec(kind="lognormal", value=1.0, spread_db=8.0)
    s = 8.0 * np.log(10.0) / 10.0
    assert spec.mean() == pytest.approx(np.exp(0.5 * s * s))
    # quadrature reproduces the analytic mean
    assert spec.expect(lambda e: e) == pytest.approx(spec.mean(), rel=1e-9)


def test_explicit_fading_assigns_values_in_order():
    spec = FadingSpec(kind="explicit", values=(0.5, 1.0, 2.0))
    pop = build_population([3], spec, seed=0)
    assert pop.gains == (0.5, 1.0, 2.0)

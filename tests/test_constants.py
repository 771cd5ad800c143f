import dataclasses
import math

import pytest

from necoh import constants


def test_codata_values():
    assert constants.SPEED_OF_LIGHT == 2.99792458e10
    assert constants.ELECTRON_MASS == 9.1093837015e-28
    assert constants.HBAR == 1.054571817e-27
    assert constants.BOLTZMANN == 1.380649e-16
    # Coulomb charge carried over to statC
    assert constants.ELEMENTARY_CHARGE == pytest.approx(4.80320471257e-10, rel=1e-11)


def test_two_pi_literal():
    assert constants.TWO_PI == 2.0 * math.pi


def test_frequency_helpers():
    assert constants.ghz_to_rad_s(1.0) == constants.TWO_PI * 1e9
    assert constants.ghz_to_rad_s(6.4) == pytest.approx(4.021238596594935e10, rel=1e-14)


def test_temperature_helper():
    assert constants.mk_to_kelvin(10.0) == pytest.approx(0.010, rel=1e-15)
    assert constants.mk_to_kelvin(0.0) == 0.0


def test_neon_parameters():
    assert constants.NEON.name == "neon"
    assert constants.NEON.epsilon == 1.244
    assert constants.NEON.density == 1.444
    assert constants.NEON.sound_speed == 1.133e5


def test_substrates_carry_only_sound_speeds():
    assert [s.name for s in constants.SUBSTRATES] == ["silicon", "sapphire"]
    assert constants.SILICON.sound_speed == 8.48e5
    assert constants.SAPPHIRE.sound_speed == 1.135e6
    for sub in constants.SUBSTRATES:
        assert sub.epsilon is None
        assert sub.density is None


def test_material_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        constants.NEON.epsilon = 2.0


@pytest.mark.parametrize("field, bad", [
    ("sound_speed", math.nan), ("sound_speed", math.inf), ("sound_speed", -math.inf),
    ("sound_speed", -1.133e5), ("sound_speed", 0.0),
    ("density", math.nan), ("density", math.inf), ("density", -1.0), ("density", 0.0),
    ("epsilon", math.nan), ("epsilon", math.inf), ("epsilon", -math.inf),
])
def test_material_refuses_bad_fields(field, bad):
    # without the check a nan density gave a nan rate, -1 a negative one and
    # inf a zero one; a bad sound speed failed deep inside the quadrature
    with pytest.raises(ValueError, match=f"^neon: {field} must be"):
        dataclasses.replace(constants.NEON, **{field: bad})

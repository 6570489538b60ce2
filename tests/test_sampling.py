from random import Random

import pytest

from mustafin.errors import ContractError
from mustafin.sampling import (
    random_configuration,
    random_degenerate_configuration,
    random_general_position_configuration,
)


class TestRandomConfiguration:
    def test_draws_every_available_point(self):
        # d = 2 and [-2, 2] leave five distinct normalized points
        cfg = random_configuration(Random(0), 2, 5, -2, 2)
        assert sorted(p.coords for p in cfg.points) == [(0, c) for c in range(-2, 3)]

    @pytest.mark.parametrize(
        "sampler",
        [random_configuration, random_general_position_configuration, random_degenerate_configuration],
    )
    def test_more_points_than_the_range_holds_is_rejected(self, sampler):
        with pytest.raises(ContractError):
            sampler(Random(0), 2, 6, -2, 2)
        with pytest.raises(ContractError):
            sampler(Random(0), 3, 1, 2, 1)

from random import Random

import pytest

import mustafin.sampling as sampling
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

    @pytest.mark.parametrize(
        "sampler, kind",
        [
            (random_general_position_configuration, "general-position"),
            (random_degenerate_configuration, "degenerate"),
        ],
    )
    def test_gives_up_after_max_tries(self, sampler, kind, monkeypatch):
        draws = []

        def never_wanted(config):
            draws.append(config)
            return kind == "degenerate"

        monkeypatch.setattr(sampling, "MAX_TRIES", 3)
        monkeypatch.setattr(sampling, "is_general_position", never_wanted)
        with pytest.raises(RuntimeError, match=f"^no {kind} configuration found in 3 tries$"):
            sampler(Random(0), 3, 2, -2, 2)
        assert len(draws) == 3

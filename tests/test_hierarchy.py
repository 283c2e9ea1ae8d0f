from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from entwatch.errors import EmptyLevel
from entwatch.hierarchy import (
    HierarchyConfig,
    LevelConfig,
    aggregate_entropy,
    level_weights,
    default_hierarchy,
    level_entropy,
    route_source,
)


def three_levels(weights=(0.5, 0.3, 0.2)):
    return HierarchyConfig(
        levels=(
            LevelConfig("user", "filesystem", weights[0], ("/home/**",)),
            LevelConfig("system", "filesystem", weights[1], ("/etc/**", "/var/**")),
            LevelConfig("net", "network", weights[2], ("net:**",)),
        ),
    )


class TestRouting:
    def test_direct_match(self):
        cfg = three_levels()
        assert route_source(cfg, "/home/user/documents/a.txt") == "user"

    def test_fallback_to_first_filesystem_level(self):
        cfg = three_levels()
        assert route_source(cfg, "/opt/x") == "user"

    def test_first_match_wins(self):
        cfg = HierarchyConfig(levels=(
            LevelConfig("a", "filesystem", 1.0, ("/home/**",)),
            LevelConfig("b", "filesystem", 1.0, ("/home/**",)),
        ))
        assert route_source(cfg, "/home/x") == "a"

    def test_empty_hierarchy(self):
        # Rejected when built, so routing always has a level to fall back to.
        with pytest.raises(ValueError, match="at least one level"):
            HierarchyConfig(levels=())

    def test_levels_are_the_only_setting(self):
        assert [f.name for f in fields(HierarchyConfig)] == ["levels"]
        with pytest.raises(TypeError, match="normalize"):
            HierarchyConfig(levels=(LevelConfig("a", "filesystem", 1.0),), normalize=True)

    def test_duplicate_level_ids_rejected(self):
        with pytest.raises(ValueError):
            HierarchyConfig(levels=(
                LevelConfig("a", "filesystem", 1.0),
                LevelConfig("a", "network", 1.0),
            ))

    def test_weight_sum_past_float_range_rejected(self):
        # Each weight is finite, but their sum is inf: each weight over it would
        # be 0, and so would the aggregate at every window close.
        with pytest.raises(ValueError, match="finite sum, got inf"):
            HierarchyConfig(levels=(
                LevelConfig("a", "filesystem", 1e308),
                LevelConfig("b", "filesystem", 1e308),
            ))


class TestLevelEntropy:
    def test_single_member_identity(self):
        assert level_entropy([7.5]) == 7.5

    def test_mean_of_two(self):
        assert level_entropy([7.5, 7.8]) == pytest.approx(7.65)

    def test_mean_of_three(self):
        assert level_entropy([6.2, 5.9, 6.5]) == pytest.approx(6.2)

    def test_empty_members(self):
        with pytest.raises(EmptyLevel):
            level_entropy([])


class TestAggregateEntropy:
    def test_single_level_identity(self):
        cfg = HierarchyConfig(levels=(LevelConfig("only", "filesystem", 1.0),))
        assert aggregate_entropy(cfg, {"only": 7.8}) == pytest.approx(7.8)

    def test_weighted_sum(self):
        got = aggregate_entropy(three_levels(), {"user": 7.5, "system": 6.2, "net": 5.9})
        assert got == pytest.approx(6.79)

    def test_all_zero_weights_rejected_with_normalization(self):
        cfg = three_levels(weights=(0.0, 0.0, 0.0))
        assert aggregate_entropy(cfg, {"user": 7.5, "system": 6.2, "net": 5.9}) is None

    def test_subset_renormalized(self):
        # The weights of the present levels are summed in declaration order,
        # each divided by that sum, then multiply-added in declaration order.
        # These numbers round differently if the division is replaced by a
        # multiplication with the reciprocal of the sum.
        weights = {"user": 0.5, "system": 0.3}
        values = {"system": 6.2, "user": 7.5}
        weight_sum = sum(weights.values())
        expected = 0.0
        for level_id in ("user", "system"):
            expected += weights[level_id] / weight_sum * values[level_id]
        assert aggregate_entropy(three_levels(), values) == expected
        assert expected == pytest.approx((0.5 * 7.5 + 0.3 * 6.2) / 0.8)

    def test_level_weights_rescale_the_present_levels_in_declaration_order(self):
        weight_sum = 0.5 + 0.2
        assert level_weights(three_levels(), {"net", "user"}) == \
            [("user", 0.5 / weight_sum), ("net", 0.2 / weight_sum)]
        assert level_weights(three_levels(weights=(0.5, 0.3, 0.0)), {"net"}) is None
        assert level_weights(three_levels(), {"other"}) is None

    def test_zero_weight_subset_rejected_with_normalization(self):
        cfg = three_levels(weights=(0.5, 0.3, 0.0))
        assert aggregate_entropy(cfg, {"net": 5.9}) is None

    def test_no_level_present(self):
        assert aggregate_entropy(three_levels(), {"other": 5.9}) is None
        assert aggregate_entropy(three_levels(), {}) is None

    @given(st.floats(0.1, 10.0))
    def test_normalized_invariant_under_weight_scaling(self, c):
        values = {"user": 7.5, "system": 6.2, "net": 5.9}
        base = aggregate_entropy(three_levels(), values)
        scaled = aggregate_entropy(three_levels(weights=(0.5 * c, 0.3 * c, 0.2 * c)), values)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_permutation_invariance(self):
        values = {"user": 7.5, "system": 6.2, "net": 5.9}
        cfg = three_levels()
        reordered = HierarchyConfig(levels=tuple(reversed(cfg.levels)))
        assert aggregate_entropy(cfg, values) == pytest.approx(aggregate_entropy(reordered, values))


class TestDefaults:
    def test_default_hierarchy_normalized(self):
        cfg = default_hierarchy()
        values = {lvl.level_id: 4.0 for lvl in cfg.levels}
        assert aggregate_entropy(cfg, values) == pytest.approx(4.0, abs=1e-9)

    def test_default_routes_user_paths_first(self):
        cfg = default_hierarchy()
        assert route_source(cfg, "/home/user/documents/a.txt") == "fs-user"
        assert route_source(cfg, "/etc/passwd") == "fs-system"
        assert route_source(cfg, "net:10.0.0.1:443") == "net"

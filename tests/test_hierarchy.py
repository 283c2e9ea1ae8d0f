from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from entwatch.hierarchy import (
    HierarchyConfig,
    LevelConfig,
    LevelMeans,
    default_hierarchy,
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


def one_close(cfg, members):
    """Each level's mean, by level id, that ``LevelMeans.means`` appends once
    ``members`` (level id -> member values) have joined, and the weighted
    mean it returns."""
    level_means = LevelMeans(cfg)
    for level_id, values in members.items():
        for value in values:
            level_means.update(level_id, None, value)
    samples = []
    total = level_means.means(0.0, samples)
    return {level_id: mean for level_id, _, mean in samples}, total


def aggregate(cfg, values):
    """The weighted mean over levels of one member each."""
    return one_close(cfg, {level_id: [value] for level_id, value in values.items()})[1]


def level_mean(members):
    return one_close(HierarchyConfig(levels=(LevelConfig("only", "filesystem", 1.0),)),
                     {"only": members})[0]["only"]


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

    def test_level_hint_wins_over_patterns(self):
        cfg = three_levels()
        assert route_source(cfg, "/home/user/a.txt", "network") == "net"
        assert route_source(cfg, "net:10.0.0.1:443", "filesystem") == "user"

    def test_level_hint_without_a_level_of_its_kind_falls_through(self):
        cfg = three_levels()
        assert route_source(cfg, "/etc/passwd", "process") == "system"
        assert route_source(cfg, "/opt/x", "process") == "user"

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
        assert level_mean([7.5]) == 7.5

    def test_mean_of_two(self):
        assert level_mean([7.5, 7.8]) == pytest.approx(7.65)

    def test_mean_of_three(self):
        assert level_mean([6.2, 5.9, 6.5]) == pytest.approx(6.2)

    def test_empty_members(self):
        # A level is averaged only once it has a member.
        assert one_close(three_levels(), {}) == ({}, None)
        assert one_close(three_levels(), {"net": [5.9]}) == ({"net": 5.9}, 5.9)

    def test_update_keeps_each_members_slot(self):
        level_means = LevelMeans(three_levels())
        assert [level_means.update("user", None, v) for v in (1.0, 2.0, 3.0)] == [0, 1, 2]
        assert level_means.update("net", None, 4.0) == 0
        assert level_means.update("user", 1, 6.0) == 1
        samples = []
        level_means.means(5.0, samples)
        assert samples == [("user", 5.0, (1.0 + 6.0 + 3.0) / 3), ("net", 5.0, 4.0)]

    def test_means_append_to_the_callers_list(self):
        level_means = LevelMeans(three_levels())
        level_means.update("system", None, 6.2)
        samples = [("earlier", 0.0, 1.0)]
        assert level_means.means(1.0, samples) == 6.2
        assert level_means.means(2.0, samples) == 6.2
        assert samples == [("earlier", 0.0, 1.0), ("system", 1.0, 6.2), ("system", 2.0, 6.2)]


class TestAggregateEntropy:
    def test_single_level_identity(self):
        cfg = HierarchyConfig(levels=(LevelConfig("only", "filesystem", 1.0),))
        assert aggregate(cfg, {"only": 7.8}) == pytest.approx(7.8)

    def test_weighted_sum(self):
        got = aggregate(three_levels(), {"user": 7.5, "system": 6.2, "net": 5.9})
        assert got == pytest.approx(6.79)

    def test_all_zero_weights_rejected_with_normalization(self):
        cfg = three_levels(weights=(0.0, 0.0, 0.0))
        assert aggregate(cfg, {"user": 7.5, "system": 6.2, "net": 5.9}) is None

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
        assert aggregate(three_levels(), values) == expected
        assert expected == pytest.approx((0.5 * 7.5 + 0.3 * 6.2) / 0.8)

    def test_level_weights_rescale_the_present_levels_in_declaration_order(self):
        # Members join net first, but the sum runs in declaration order, and
        # a level that gets its first member later is planned in.
        weight_sum = 0.5 + 0.2
        level_means = LevelMeans(three_levels())
        level_means.update("net", None, 5.9)
        assert level_means.means(0.0, []) == 0.2 / 0.2 * 5.9
        level_means.update("user", None, 7.5)
        assert level_means.means(1.0, []) == 0.0 + 0.5 / weight_sum * 7.5 + 0.2 / weight_sum * 5.9

    def test_zero_weight_subset_rejected_with_normalization(self):
        cfg = three_levels(weights=(0.5, 0.3, 0.0))
        assert aggregate(cfg, {"net": 5.9}) is None

    def test_no_level_present(self):
        assert aggregate(three_levels(), {"other": 5.9}) is None
        assert aggregate(three_levels(), {}) is None

    @given(st.floats(0.1, 10.0))
    def test_normalized_invariant_under_weight_scaling(self, c):
        values = {"user": 7.5, "system": 6.2, "net": 5.9}
        base = aggregate(three_levels(), values)
        scaled = aggregate(three_levels(weights=(0.5 * c, 0.3 * c, 0.2 * c)), values)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_permutation_invariance(self):
        values = {"user": 7.5, "system": 6.2, "net": 5.9}
        cfg = three_levels()
        reordered = HierarchyConfig(levels=tuple(reversed(cfg.levels)))
        assert aggregate(cfg, values) == pytest.approx(aggregate(reordered, values))


class TestDefaults:
    def test_default_hierarchy_normalized(self):
        cfg = default_hierarchy()
        values = {lvl.level_id: 4.0 for lvl in cfg.levels}
        assert aggregate(cfg, values) == pytest.approx(4.0, abs=1e-9)

    def test_default_routes_user_paths_first(self):
        cfg = default_hierarchy()
        assert route_source(cfg, "/home/user/documents/a.txt") == "fs-user"
        assert route_source(cfg, "/etc/passwd") == "fs-system"
        assert route_source(cfg, "net:10.0.0.1:443") == "net"

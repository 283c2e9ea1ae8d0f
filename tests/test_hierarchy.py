import pytest
from hypothesis import given
from hypothesis import strategies as st

from entwatch.errors import EmptyLevel, MissingLevelValue, NoLevels
from entwatch.hierarchy import (
    HierarchyConfig,
    LevelConfig,
    LevelState,
    aggregate_entropy,
    default_hierarchy,
    level_entropy,
    route_source,
)


def three_levels(normalize=False, weights=(0.5, 0.3, 0.2)):
    return HierarchyConfig(
        levels=(
            LevelConfig("user", "filesystem", weights[0], ("/home/**",)),
            LevelConfig("system", "filesystem", weights[1], ("/etc/**", "/var/**")),
            LevelConfig("net", "network", weights[2], ("net:**",)),
        ),
        normalize=normalize,
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
        with pytest.raises(NoLevels):
            route_source(HierarchyConfig(levels=()), "/home/x")

    def test_duplicate_level_ids_rejected(self):
        with pytest.raises(ValueError):
            HierarchyConfig(levels=(
                LevelConfig("a", "filesystem", 1.0),
                LevelConfig("a", "network", 1.0),
            ))


class TestLevelEntropy:
    def test_single_member_identity(self):
        state = LevelState.create("user")
        assert level_entropy(state, [7.5], timestamp=0.0) == 7.5

    def test_mean_of_two(self):
        state = LevelState.create("user")
        assert level_entropy(state, [7.5, 7.8], timestamp=0.0) == pytest.approx(7.65)

    def test_mean_of_three(self):
        state = LevelState.create("user")
        assert level_entropy(state, [6.2, 5.9, 6.5], timestamp=0.0) == pytest.approx(6.2)

    def test_appends_to_series(self):
        state = LevelState.create("user")
        level_entropy(state, [5.0], timestamp=1.0)
        level_entropy(state, [6.0], timestamp=2.0)
        assert [s.value for s in state.series.samples] == [5.0, 6.0]
        assert state.source_count == 1

    def test_empty_members(self):
        with pytest.raises(EmptyLevel):
            level_entropy(LevelState.create("user"), [])


class TestAggregateEntropy:
    def test_single_level_identity(self):
        cfg = HierarchyConfig(levels=(LevelConfig("only", "filesystem", 1.0),))
        assert aggregate_entropy(cfg, {"only": 7.8}) == pytest.approx(7.8)

    def test_weighted_sum(self):
        got = aggregate_entropy(three_levels(), {"user": 7.5, "system": 6.2, "net": 5.9})
        assert got == pytest.approx(6.79)

    def test_all_zero_weights_allowed_without_normalization(self):
        cfg = three_levels(weights=(0.0, 0.0, 0.0))
        assert aggregate_entropy(cfg, {"user": 7.5, "system": 6.2, "net": 5.9}) == 0.0

    def test_all_zero_weights_rejected_with_normalization(self):
        cfg = three_levels(normalize=True, weights=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            aggregate_entropy(cfg, {"user": 7.5, "system": 6.2, "net": 5.9})

    def test_missing_level_named(self):
        with pytest.raises(MissingLevelValue, match="net"):
            aggregate_entropy(three_levels(), {"user": 7.5, "system": 6.2})

    @given(st.floats(0.1, 10.0))
    def test_weight_scaling_linearity(self, c):
        values = {"user": 7.5, "system": 6.2, "net": 5.9}
        base = aggregate_entropy(three_levels(), values)
        scaled = aggregate_entropy(three_levels(weights=(0.5 * c, 0.3 * c, 0.2 * c)), values)
        assert scaled == pytest.approx(c * base, rel=1e-12)

    @given(st.floats(0.1, 10.0))
    def test_normalized_invariant_under_weight_scaling(self, c):
        values = {"user": 7.5, "system": 6.2, "net": 5.9}
        base = aggregate_entropy(three_levels(normalize=True), values)
        scaled = aggregate_entropy(
            three_levels(normalize=True, weights=(0.5 * c, 0.3 * c, 0.2 * c)), values)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_permutation_invariance(self):
        values = {"user": 7.5, "system": 6.2, "net": 5.9}
        cfg = three_levels()
        reordered = HierarchyConfig(levels=tuple(reversed(cfg.levels)), normalize=False)
        assert aggregate_entropy(cfg, values) == pytest.approx(aggregate_entropy(reordered, values))


class TestDefaults:
    def test_default_hierarchy_normalized(self):
        cfg = default_hierarchy()
        assert sum(cfg.effective_weights().values()) == pytest.approx(1.0, abs=1e-9)

    def test_default_routes_user_paths_first(self):
        cfg = default_hierarchy()
        assert route_source(cfg, "/home/user/documents/a.txt") == "fs-user"
        assert route_source(cfg, "/etc/passwd") == "fs-system"
        assert route_source(cfg, "net:10.0.0.1:443") == "net"

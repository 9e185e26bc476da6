"""Configuration validation and JSON round trips."""

import dataclasses

import pytest

from lrbev.config import (PipelineConfig, config_for_scale, desk_config,
                          paper_config, tiny_config)
from lrbev.errors import ConfigError
from lrbev.grids import GridSpec


@pytest.mark.parametrize("factory", [desk_config, paper_config, tiny_config])
def test_builtin_scales_validate(factory):
    factory().validate()


def test_full_scale_radar_grid_is_180x180():
    cfg = paper_config()
    assert cfg.radar_grid.counts[:2] == (180, 180)
    assert cfg.radar_grid.cell == (0.6, 0.6, 8.0)
    assert cfg.lidar_grid.cell == (0.075, 0.075, 0.2)
    assert cfg.grid_ratio == 8
    assert cfg.lidar_sweeps == 10 and cfg.radar_sweeps == 6


def test_desk_scale_geometry():
    cfg = desk_config()
    assert cfg.extent == 16.0
    assert cfg.grid_ratio == 4
    assert cfg.pillar_height == 8.0 and cfg.z_min == -5.0


def test_json_round_trip(tmp_path):
    cfg = desk_config()
    path = tmp_path / "cfg.json"
    cfg.to_json(path)
    back = PipelineConfig.from_json(path)
    back.validate()
    assert back.to_dict() == cfg.to_dict()


def test_unknown_scale():
    with pytest.raises(ConfigError, match="scale"):
        config_for_scale("galactic")


def _mutate(cfg, **kwargs):
    return dataclasses.replace(cfg, **kwargs)


class TestValidationMessagesNameFields:
    def test_non_square_radar_cell(self):
        cfg = desk_config()
        cfg = _mutate(cfg, radar_grid=GridSpec(origin=(-16, -16, -5),
                                               cell=(1.0, 0.5, 8.0),
                                               counts=(32, 32, 1)))
        with pytest.raises(ConfigError, match="radar_grid.cell"):
            cfg.validate()

    def test_radar_nz_not_one(self):
        cfg = _mutate(desk_config(),
                      radar_grid=GridSpec(origin=(-16, -16, -5),
                                          cell=(1.0, 1.0, 4.0),
                                          counts=(32, 32, 2)))
        with pytest.raises(ConfigError, match="radar_grid.counts"):
            cfg.validate()

    def test_pillar_depth_must_span_z(self):
        cfg = _mutate(desk_config(),
                      radar_grid=GridSpec(origin=(-16, -16, -5),
                                          cell=(1.0, 1.0, 4.0),
                                          counts=(32, 32, 1)))
        with pytest.raises(ConfigError, match="radar_grid.cell"):
            cfg.validate()

    def test_origin_mismatch(self):
        cfg = _mutate(desk_config(),
                      radar_grid=GridSpec(origin=(-15, -16, -5),
                                          cell=(1.0, 1.0, 8.0),
                                          counts=(32, 32, 1)))
        with pytest.raises(ConfigError, match="radar_grid.origin"):
            cfg.validate()

    def test_non_integer_cell_ratio(self):
        cfg = _mutate(desk_config(),
                      radar_grid=GridSpec(origin=(-16, -16, -5),
                                          cell=(0.9, 0.9, 8.0),
                                          counts=(32, 32, 1)))
        with pytest.raises(ConfigError, match="radar_grid.cell"):
            cfg.validate()

    def test_enhanced_width_must_total_96(self):
        cfg = desk_config()
        cfg.channels.radar_channels = 48
        with pytest.raises(ConfigError, match="channels.radar_channels"):
            cfg.validate()

    def test_encoder_channels_pinned_512(self):
        cfg = desk_config()
        cfg.channels.encoder_channels = 256
        with pytest.raises(ConfigError, match="channels.encoder_channels"):
            cfg.validate()

    def test_encoder_needs_three_blocks(self):
        cfg = desk_config()
        cfg.channels.encoder_hidden = (8, 8, 8)
        with pytest.raises(ConfigError, match="channels.encoder_hidden"):
            cfg.validate()

    def test_trunk_needs_a_conv(self):
        cfg = desk_config()
        cfg.channels.trunk_channels = ()
        with pytest.raises(ConfigError, match="channels.trunk_channels"):
            cfg.validate()

    def test_negative_window(self):
        cfg = desk_config()
        cfg.fusion.bev_window = (-1, 2)
        with pytest.raises(ConfigError, match="fusion.bev_window"):
            cfg.validate()

    def test_bad_distance_mode(self):
        cfg = desk_config()
        cfg.fusion.distance_mode = "chebyshev"
        with pytest.raises(ConfigError, match="fusion.distance_mode"):
            cfg.validate()

    def test_bad_variant(self):
        cfg = _mutate(desk_config(), radar_variant="c")
        with pytest.raises(ConfigError, match="radar_variant"):
            cfg.validate()

    def test_score_thresh_range(self):
        cfg = desk_config()
        cfg.head.score_thresh = 1.5
        with pytest.raises(ConfigError, match="head.score_thresh"):
            cfg.validate()

    def test_negative_objects(self):
        cfg = desk_config()
        cfg.scene.num_objects = -1
        with pytest.raises(ConfigError, match="scene.num_objects"):
            cfg.validate()

    def test_bad_returns_range(self):
        cfg = desk_config()
        cfg.scene.radar_returns = (3, 1)
        with pytest.raises(ConfigError, match="scene.radar_returns"):
            cfg.validate()

    def test_sweep_counts(self):
        cfg = _mutate(desk_config(), lidar_sweeps=0)
        with pytest.raises(ConfigError, match="sweeps"):
            cfg.validate()


def test_grid_spec_rejects_bad_cells():
    with pytest.raises(ConfigError):
        GridSpec(origin=(0, 0, 0), cell=(0.0, 1.0, 1.0), counts=(4, 4, 1))
    with pytest.raises(ConfigError):
        GridSpec(origin=(0, 0, 0), cell=(1.0, 1.0, 1.0), counts=(0, 4, 1))


def test_grid_spec_json_round_trip():
    g = GridSpec(origin=(-16.0, -16.0, -5.0), cell=(0.25, 0.25, 1.0),
                 counts=(128, 128, 8))
    assert GridSpec.from_dict(g.to_dict()) == g

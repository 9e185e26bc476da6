"""Configuration validation and JSON round trips."""

import dataclasses
import json

import pytest

from lrbev.config import (PipelineConfig, config_for_scale, desk_config,
                          paper_config, tiny_config)
from lrbev.errors import ConfigError, FormatError
from lrbev.grids import GridSpec


@pytest.mark.parametrize("factory", [desk_config, paper_config, tiny_config])
def test_builtin_scales_validate(factory):
    factory().validate()


def test_full_scale_radar_grid_is_180x180():
    cfg = paper_config()
    assert cfg.radar_grid.counts[:2] == (180, 180)
    assert cfg.radar_grid.cell == (0.6, 0.6, 8.0)
    assert cfg.lidar_grid.cell == (0.075, 0.075, 0.2)
    assert cfg.lidar_grid.counts[:2] == tuple(8 * n for n in cfg.radar_grid.counts[:2])
    assert cfg.lidar_sweeps == 10 and cfg.radar_sweeps == 6


def test_desk_scale_geometry():
    cfg = desk_config()
    assert cfg.extent == 16.0
    assert cfg.lidar_grid.counts[:2] == tuple(4 * n for n in cfg.radar_grid.counts[:2])
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
    def test_non_integer_cell_ratio(self):
        cfg = _mutate(desk_config(), radar_cell=0.9)
        with pytest.raises(ConfigError, match="radar_cell: .* LiDAR x cell"):
            cfg.validate()

    def test_non_integer_cell_ratio_on_y(self):
        grid = GridSpec(origin=(-16.0, -16.0, -5.0), cell=(0.25, 0.3, 1.0),
                        counts=(128, 100, 8))
        cfg = _mutate(desk_config(), lidar_grid=grid)
        with pytest.raises(ConfigError, match="radar_cell: .* LiDAR y cell"):
            cfg.validate()

    def test_radar_cells_must_tile_the_lidar_grid(self):
        grid = GridSpec(origin=(-16.0, -16.0, -5.0), cell=(0.25, 0.25, 1.0),
                        counts=(128, 126, 8))
        cfg = _mutate(desk_config(), lidar_grid=grid)
        with pytest.raises(ConfigError, match="radar_cell: 126 LiDAR y cells"):
            cfg.validate()

    @pytest.mark.parametrize("cell", [0.0, -1.0, float("nan"), float("inf"), 64.0])
    def test_radar_cell_out_of_range(self, cell):
        with pytest.raises(ConfigError, match="radar_cell"):
            _mutate(desk_config(), radar_cell=cell).validate()

    def test_enhanced_width_must_total_96(self):
        cfg = desk_config()
        cfg.fusion.height_feature_dim = 48
        with pytest.raises(ConfigError, match="fusion.height_feature_dim"):
            cfg.validate()

    def test_encoder_channels_pinned_512(self):
        doc = desk_config().to_dict()
        doc["channels"]["encoder_channels"] = 256
        with pytest.raises(ConfigError, match="channels.encoder_channels: unknown key"):
            PipelineConfig.from_dict(doc)

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


@pytest.mark.parametrize("key, value", [("cell", [0.25, -0.25, 1.0]),
                                        ("counts", [128, 0, 8])])
def test_grid_check_names_the_config_field(key, value):
    """The grid's own checks name the field of the config that holds it."""
    doc = desk_config().to_dict()
    doc["lidar_grid"][key] = value
    with pytest.raises(ConfigError, match=f"^lidar_grid.{key}: "):
        PipelineConfig.from_dict(doc)


def test_grid_spec_json_round_trip():
    g = GridSpec(origin=(-16.0, -16.0, -5.0), cell=(0.25, 0.5, 1.0),
                 counts=(128, 64, 8))
    doc = json.loads(json.dumps(_mutate(desk_config(), lidar_grid=g).to_dict()))
    assert PipelineConfig.from_dict(doc).lidar_grid == g


def test_radar_grid_derived_from_radar_cell():
    g = GridSpec(origin=(-16.0, -16.0, -5.0), cell=(0.25, 0.5, 1.0),
                 counts=(128, 64, 8))
    cfg = _mutate(desk_config(), lidar_grid=g)
    cfg.validate()
    assert cfg.radar_grid == GridSpec(origin=g.origin, cell=(1.0, 1.0, 8.0),
                                      counts=(32, 32, 1))
    assert cfg.radar_cell_size == 1.0
    assert cfg.radar_grid.cell[0] == 4 * g.cell[0]


@pytest.mark.parametrize("factory", [desk_config, paper_config, tiny_config])
def test_class_count_follows_the_class_set(factory):
    cfg = factory()
    assert cfg.num_classes == len(cfg.classes) == 3


def test_desk_has_48_settable_values():
    """A tuple counts as one value, ``lidar_grid`` as its nine numbers."""
    doc = desk_config().to_dict()
    grid = doc.pop("lidar_grid")
    count = sum(len(v) for v in grid.values()) + sum(
        len(v) if isinstance(v, dict) else 1 for v in doc.values())
    assert count == 48


@pytest.mark.parametrize("section, key", [
    (None, "radar_grid"), ("channels", "radar_channels"),
    ("channels", "encoder_channels"), ("head", "num_classes"),
    ("head", "loss_weights")])
def test_removed_keys_rejected(section, key):
    doc = desk_config().to_dict()
    (doc[section] if section else doc)[key] = 1
    name = f"{section}.{key}" if section else key
    with pytest.raises(ConfigError, match=f"^{name}: unknown key"):
        PipelineConfig.from_dict(doc)


WRONG_TYPES = [
    (("fusion", "bev_window"), 2, "fusion.bev_window"),
    (("fusion", "bev_window"), [1], "fusion.bev_window"),
    (("fusion", "bev_window"), [1, "2"], "fusion.bev_window"),
    (("scene", "sweep_dt"), "0.1", "scene.sweep_dt"),
    (("scene", "num_objects"), 2.5, "scene.num_objects"),
    (("scene", "num_objects"), True, "scene.num_objects"),
    (("channels", "trunk_channels"), {"a": 1}, "channels.trunk_channels"),
    (("radar_variant",), 1, "radar_variant"),
    (("radar_cell",), [1.0], "radar_cell"),
    (("lidar_grid", "counts"), [128, 128], "lidar_grid.counts"),
    (("scene",), [], "scene"),
]


@pytest.mark.parametrize("path, value, field", WRONG_TYPES)
def test_wrong_json_type_names_the_field(path, value, field):
    doc = desk_config().to_dict()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ConfigError, match=f"^{field}: expected"):
        PipelineConfig.from_dict(doc)


@pytest.mark.parametrize("path, value, field", WRONG_TYPES)
def test_wrong_python_type_names_the_field(path, value, field):
    """The same values set on a config built in Python fail ``validate``
    with the same message, not with an error from the code reading them."""
    cfg = desk_config()
    target = cfg
    for key in path[:-1]:
        target = getattr(target, key)
    object.__setattr__(target, path[-1], value)   # GridSpec is frozen
    with pytest.raises(ConfigError, match=f"^{field}: expected"):
        cfg.validate()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_python_value_rejected(value):
    cfg = tiny_config()
    cfg.scene.lidar_density = value
    with pytest.raises(ConfigError, match="^scene.lidar_density: expected a finite"):
        cfg.validate()


def test_python_window_of_one_int_rejected():
    cfg = tiny_config()
    cfg.fusion.bev_window = 2
    with pytest.raises(ConfigError, match="^fusion.bev_window: expected a list of 2 ints"):
        cfg.validate()


@pytest.mark.parametrize("path, field", [
    (("lidar_grid",), "lidar_grid"), (("radar_cell",), "radar_cell"),
    (("lidar_grid", "cell"), "lidar_grid.cell")])
def test_missing_required_value(path, field):
    doc = desk_config().to_dict()
    target = doc
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
    with pytest.raises(ConfigError, match=f"^{field}: missing"):
        PipelineConfig.from_dict(doc)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_number_rejected(literal):
    text = json.dumps(desk_config().to_dict()).replace(
        '"lidar_density": 40.0', f'"lidar_density": {literal}')
    with pytest.raises(ConfigError, match="^scene.lidar_density: expected a finite"):
        PipelineConfig.from_dict(json.loads(text))


def test_integers_read_as_floats():
    doc = desk_config().to_dict()
    doc["radar_cell"] = 1
    doc["lidar_grid"]["origin"] = [-16, -16, -5]
    cfg = PipelineConfig.from_dict(doc)
    assert cfg.to_dict() == desk_config().to_dict()
    assert type(cfg.radar_cell) is float


@pytest.mark.parametrize("text, offset", [('{"radar_cell": 1.0,,}', 19),
                                          ('{"r\u00e9": 1.0,,}', 12)])
def test_non_json_file_is_a_format_error(tmp_path, text, offset):
    path = tmp_path / "cfg.json"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(FormatError, match=f"byte offset {offset}\\)"):
        PipelineConfig.from_json(path)

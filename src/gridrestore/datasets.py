"""Access to the bundled case study data files."""

from __future__ import annotations

from importlib import resources

from .model import Network, apply_damage, check_record, load_case, read_json
from .scenarios import DerPlacement, load_scenario

CASE_FILE = "ieee123_1ph.json"
UNIFORM_FILE = "uniform.json"
CLUSTERED_FILE = "clustered.json"
DAMAGE_FILE = "damage_windstorm.json"


def data_path(name: str):
    return resources.files("gridrestore.data") / name


def bundled_case() -> Network:
    return load_case(data_path(CASE_FILE))


def bundled_placement(name: str) -> DerPlacement:
    files = {"uniform": UNIFORM_FILE, "clustered": CLUSTERED_FILE}
    return load_scenario(data_path(files[name]))


def bundled_damage_ids() -> list[int]:
    return load_damage_file(data_path(DAMAGE_FILE))


def bundled_damaged_case() -> Network:
    return apply_damage(bundled_case(), bundled_damage_ids())


# A damage file's fields: their JSON types and the required ones
_DAMAGE_FORMAT = ({"damaged_line_ids": "list of integer"}, frozenset({"damaged_line_ids"}))


def load_damage_file(path) -> list[int]:
    """Damaged line ids of a damage file, checked by ``model.check_record`` (``CASE_SCHEMA.md``)."""
    raw = read_json(path, "damage")
    return check_record(raw, f"damage file {path}", *_DAMAGE_FORMAT)["damaged_line_ids"]

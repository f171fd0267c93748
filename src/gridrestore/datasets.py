"""Access to the bundled case study data files."""

from __future__ import annotations

from importlib import resources

from .errors import CaseFormatError
from .model import Network, apply_damage, check_json, load_case, read_json
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


def load_damage_file(path) -> list[int]:
    """Damaged line ids from a damage file (see ``CASE_SCHEMA.md``)."""
    raw = check_json(read_json(path, "damage"), "object", f"damage file {path}")
    if "damaged_line_ids" not in raw:
        raise CaseFormatError(f"damage file {path} is missing 'damaged_line_ids'")
    return check_json(
        raw["damaged_line_ids"], "list of integer", f"damage file {path} field 'damaged_line_ids'"
    )

"""Writers of the two key = value formats, as the tests' oracle of their parsers.

`format_scenario` and `format_policy` turn a config back into text that
`parse_scenario` and `parse_policy` read back to the same config. Only the
round-trip properties and the CLI tests that write a scenario file use them.
"""

from __future__ import annotations

from ranguard.kpm import ATTACK_CLASSES
from ranguard.ransim import ScenarioConfig
from ranguard.xapp import PolicyMap


def format_scenario(config: ScenarioConfig) -> str:
    """Config back to parseable text; parse_scenario(format_scenario(c)) == c."""
    lines = [
        f"bs_id = {config.bs_id}",
        f"seed = {config.seed}",
        f"duration_ms = {config.duration_ms}",
        f"period_ms = {config.period_ms}",
        f"time_mode = {config.time_mode.value}",
    ]
    for spec in config.ues:
        if spec.script is None:
            lines.append(f"ue.{spec.ue_id}.script = random")
            if spec.classes:
                joined = ",".join(c.value for c in spec.classes)
                lines.append(f"ue.{spec.ue_id}.classes = {joined}")
        else:
            joined = " ".join(f"{s.traffic_class.value}:{s.duration_ms}" for s in spec.script)
            lines.append(f"ue.{spec.ue_id}.script = {joined}")
    return "\n".join(lines) + "\n"


def format_policy(policy: PolicyMap) -> str:
    """PolicyMap back to parseable text; parse_policy(format_policy(p)) == p."""
    lines = [f"window = {policy.window}", f"dwell = {policy.dwell}"]
    lines += [f"{cls.value} = {policy.actions[cls].value}" for cls in ATTACK_CLASSES]
    return "\n".join(lines) + "\n"

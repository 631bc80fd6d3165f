"""Runtime configuration for the command line tool.

Settings resolve in precedence order: explicit command line flags, then
``SIDEAL_*`` environment variables, then a config file (``SIDEAL_CONFIG``
or ``--config``), then built-in defaults.  The file format is flat
``key = value`` lines with ``#`` comments.
"""

import os
from dataclasses import dataclass, fields, replace

from .errors import DEFAULT_MAX_CANDIDATES, ParameterError, require_int

ENV_PREFIX = "SIDEAL_"


@dataclass(frozen=True)
class CliConfig:
    # the most generators any listing or oracle builds
    max_candidates: int = DEFAULT_MAX_CANDIDATES
    format: str = "text"
    deep: bool = False


_KEYS = {f.name for f in fields(CliConfig)}


def _coerce(key, raw):
    """The value of config key ``key`` given as ``raw``: a string from a
    file or the environment, or a value from a flag or library override."""
    if key == "max_candidates":
        if isinstance(raw, str):
            try:
                raw = int(raw)
            except ValueError:
                raise ParameterError(f"config key {key}: expected integer, got {raw!r}")
        require_int(key, raw, 1)
        return raw
    if key == "deep":
        if type(raw) is bool:
            return raw
        lowered = raw.strip().lower() if isinstance(raw, str) else None
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ParameterError(f"config key {key}: expected boolean, got {raw!r}")
    if key == "format":
        if raw not in ("text", "json"):
            raise ParameterError(f"config key format: expected text or json, got {raw!r}")
        return raw
    raise ParameterError(f"unknown config key {key!r}")


def parse_config_file(path):
    """Read ``key = value`` pairs from a file.  Unknown keys and bad values
    are errors that name the file and line."""
    settings = {}
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParameterError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            settings[key] = _coerce(key, raw.strip())
        except ParameterError as exc:
            raise ParameterError(f"{path}:{lineno}: {exc}") from None
    return settings


def _env_settings(environ):
    """Settings from SIDEAL_<KEY> variables.  Any other SIDEAL_* variable
    but SIDEAL_CONFIG is an error, as an unknown key in a file is."""
    keys = {ENV_PREFIX + key.upper(): key for key in _KEYS}
    settings = {}
    # iterate names only: os.environ decodes each value it yields
    for name in environ:
        if name in keys:
            settings[keys[name]] = _coerce(keys[name], environ[name])
        elif name.startswith(ENV_PREFIX) and name != ENV_PREFIX + "CONFIG":
            raise ParameterError(f"unknown environment variable {name}")
    return settings


def load_config(config_path=None, overrides=None, environ=None):
    """Resolve a CliConfig from all sources.

    overrides holds values from parsed flags, checked as file values are;
    keys mapped to None are treated as unset.
    """
    if environ is None:
        environ = os.environ
    config = CliConfig()
    path = config_path or environ.get(ENV_PREFIX + "CONFIG")
    if path:
        config = replace(config, **parse_config_file(path))
    config = replace(config, **_env_settings(environ))
    if overrides:
        config = replace(config, **{k: _coerce(k, v) for k, v in overrides.items()
                                    if v is not None})
    return config

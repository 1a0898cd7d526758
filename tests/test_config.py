import pytest

from fcopt.config import parse_config_text, load_config
from fcopt.experiments import Param, validate


# config values are read as text and typed by the declaration they meet
DECLARED = {"n": Param("int", 1, "[0, inf)"),
            "x": Param("float", 0.5, "(-inf, inf)"),
            "c": Param("str", "identity", ("identity", "deficient")),
            "levels": Param("ints", (1, 2, 3), "[1, inf)", min_len=3)}


def test_coerce_scalars():
    out = validate(DECLARED, parse_config_text(
        "n = 42\nx = 1e-3\nc = deficient\n"))
    assert out == {"n": 42, "x": 1e-3, "c": "deficient", "levels": (1, 2, 3)}
    assert isinstance(out["n"], int)
    assert validate(DECLARED, {"x": "0.25"})["x"] == 0.25
    # an int-spelled float is a float, and a float-spelled int is refused
    assert isinstance(validate(DECLARED, {"x": "2"})["x"], float)
    with pytest.raises(ValueError, match="n must be a single integer"):
        validate(DECLARED, {"n": "42.0"})


def test_coerce_lists():
    assert validate(DECLARED, {"levels": "8,16,32"})["levels"] == (8, 16, 32)
    assert validate(DECLARED, {"levels": " 8, 16 ,32"})["levels"] == (
        8, 16, 32)
    with pytest.raises(ValueError, match="comma list"):
        validate(DECLARED, {"levels": "8,,16"})


def test_parse_basic():
    text = """
    # comment line
    eps0 = 0.1
    steps = 14   # trailing comment
    levels = 8,16,32,64

    c2 = identity
    """
    out = parse_config_text(text)
    assert out == {"eps0": "0.1", "steps": "14", "levels": "8,16,32,64",
                   "c2": "identity"}


def test_parse_duplicate_key_last_wins():
    out = parse_config_text("x = 1\nx = 2\n")
    assert out == {"x": "2"}


def test_parse_errors():
    with pytest.raises(ValueError, match="key=value"):
        parse_config_text("just some words\n")
    with pytest.raises(ValueError, match="empty key"):
        parse_config_text("= 3\n")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("experiment = wave-obs\nT = 0.2\nmodes = 8,16,32\n")
    out = load_config(str(path))
    assert out == {"experiment": "wave-obs", "T": "0.2", "modes": "8,16,32"}


def test_load_config_missing_file():
    with pytest.raises(ValueError, match="not found"):
        load_config("/nonexistent/path.cfg")


def test_validate_layering():
    # every declared name comes back, overridden or at its default, and the
    # declaration keeps its defaults
    out = validate(DECLARED, {"n": "5", "c": "deficient"})
    assert out == {"n": 5, "x": 0.5, "c": "deficient", "levels": (1, 2, 3)}
    assert DECLARED["n"].default == 1


def test_validate_unknown_key():
    with pytest.raises(ValueError, match="unknown parameter 'zz'"):
        validate(DECLARED, {"zz": "3"})

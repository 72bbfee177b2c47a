import pytest

from osaas_probe.errors import (ConfigError, FitRejectedError, ScenarioError,
                                read_json, text)

from conftest import UNREADABLE, write_unreadable


@pytest.mark.parametrize("error", [ScenarioError, ConfigError, FitRejectedError])
@pytest.mark.parametrize("kind", sorted(UNREADABLE))
def test_read_json_raises_the_given_error_in_one_line(tmp_path, kind, error):
    """Each way a read fails raises ``error`` with one line naming the file,
    caused by what the read raised. A first byte 0xFF, 5000 digits
    and 100 000 levels once escaped the scenario and catalog readers as
    tracebacks, and the nesting escaped the curve reader too."""
    path = tmp_path / "input.json"
    write_unreadable(path, kind)
    with pytest.raises(error) as raised:
        read_json(path, "thing", error)
    message = str(raised.value)
    assert message.startswith(f"cannot read thing {path}: ")
    # an OSError's own text names the file again
    assert message.count(str(path)) == 1 + (kind in ("missing", "directory"))
    assert len(message.splitlines()) == 1
    assert isinstance(raised.value.__cause__, UNREADABLE[kind][1])


def test_read_json_path_that_encodes_to_no_file_name(tmp_path):
    """A lone surrogate has no encoding in a file name: ValueError."""
    with pytest.raises(ConfigError, match="cannot read catalog ") as raised:
        read_json(str(tmp_path / "\ud800.json"), "catalog", ConfigError)
    assert isinstance(raised.value.__cause__, UnicodeEncodeError)


@pytest.mark.parametrize("value", ["\ud800", "x\udfffy", "\udcff"])
def test_text_that_encodes_to_no_utf8_is_rejected(value):
    """A lone surrogate, which JSON's \\uXXXX escape can spell, once passed
    and ended in a UnicodeEncodeError traceback where it was written."""
    with pytest.raises(ScenarioError) as raised:
        text(value, "name")
    assert str(raised.value) == f"name must be UTF-8 text, got {value!r}"
    assert str(raised.value).isascii()


def test_text_keeps_any_utf8_text():
    for value in ("", "B-485", "é∑😀", "\0"):
        assert text(value, "name") is value

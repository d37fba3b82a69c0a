"""Exit-code contract of the command-line front end: 0/1/2, no traceback."""

import json
import math

from maslovkit import cli


def test_handle_index_without_angle_or_sweep_is_input_error(capsys):
    assert cli.main(["handle-index", "--n", "3", "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_handle_index_with_angle(capsys):
    # a Cz = 4 pi is the m = 2 chord: n/2 + (n - k)(m - 1/2) = 3/2 + 3 = 9/2
    argv = ["handle-index", "--n", "3", "--k", "1", "--aCz", repr(4 * math.pi)]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["halves"] == 9

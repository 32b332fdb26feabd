"""`scripts/parity_sweep.py`'s file comparison on hand-made trees; no sweep is run."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "parity_sweep.py"
_SPEC = importlib.util.spec_from_file_location("parity_sweep", _PATH)
parity_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity_sweep)


def write(path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return str(path)


def test_the_first_differing_line_is_named_with_both_texts(tmp_path):
    old = write(tmp_path / "old" / "t.csv", b"batch_size,mean_l2\n10,5.5\n2500,4.85112e-16\n")
    new = write(tmp_path / "new" / "t.csv", b"batch_size,mean_l2\n10,5.5\n2500,0\n")
    assert parity_sweep.first_difference(old, new) == "line 3: '2500,4.85112e-16' -> '2500,0'"
    assert parity_sweep.first_difference(old, old) is None


def test_a_line_past_the_shorter_file_reads_end_of_file(tmp_path):
    short = write(tmp_path / "short.txt", b"a\nb\n")
    long = write(tmp_path / "long.txt", b"a\nb\nc\n")
    assert parity_sweep.first_difference(short, long) == "line 3: <end of file> -> 'c'"
    assert parity_sweep.first_difference(long, short) == "line 3: 'c' -> <end of file>"


def test_binary_files_name_no_line(tmp_path):
    old = write(tmp_path / "old.npz", b"PK\x03\x04\xff\xfe\n")
    new = write(tmp_path / "new.npz", b"PK\x03\x04\xff\xfd\n")
    assert parity_sweep.first_difference(old, new) is None


def test_manifest_path_lines_are_skipped_and_lines_keep_their_numbers(tmp_path):
    old = write(tmp_path / "old" / "run_manifest.ini", b"[run]\noutput_dir = /a\nseed = 0\nlr0 = 0.1\n")
    new = write(tmp_path / "new" / "run_manifest.ini", b"[run]\noutput_dir = /b\nseed = 0\nlr0 = 0.2\n")
    assert parity_sweep.first_difference(old, new) == "line 4: 'lr0 = 0.1' -> 'lr0 = 0.2'"
    same = write(tmp_path / "same" / "run_manifest.ini", b"[run]\noutput_dir = /c\nseed = 0\nlr0 = 0.1\n")
    assert parity_sweep.first_difference(old, same) is None
    compared, differing = parity_sweep.differing_files(str(tmp_path / "old"), str(tmp_path / "new"))
    assert (compared, differing) == (1, ["run_manifest.ini"])
    assert parity_sweep.differing_files(str(tmp_path / "old"), str(tmp_path / "same")) == (1, [])

"""The plain-CSV reader (dataio._read_plain_csv) reads a file a piece of
_CSV_CHUNK_CHARS characters at a time. Wherever a piece ends, inside a line,
between the \\r and \\n of a line end, at a blank line or inside the header,
the raw recordings, feature matrices and training histories read must be the
same bits, and a bad file the same exit code and message, as when the file
is one piece.
"""

import contextlib
import io
import os
import shutil

import pytest

from eegpipe import dataio, nn
from eegpipe.cli import main
from test_file_fuzz import COMMANDS, CORRUPTIONS, command

SMALL_CHUNKS = [1, 7, 64]


@contextlib.contextmanager
def chunk_chars(n):
    with pytest.MonkeyPatch.context() as mp:
        if n is not None:
            mp.setattr(dataio, "_CSV_CHUNK_CHARS", n)
        yield


def outcome(load):
    """load()'s value, or the type and message of the error it raised."""
    try:
        return load()
    except Exception as exc:
        return type(exc), str(exc)


RAW_HEADER = ",".join(dataio.DEFAULT_CHANNELS)
RAW_ROWS = ["0.5,-1.25,3e-05,7.0", "1e+300,-0.0,2.5,-4.75", "6.0,0.125,-8.5,9.0"]
FEATURE_HEADER = ",".join(f"feature_{i:02d}" for i in range(6)) + ",label"  # > 64 chars
FEATURE_ROWS = ["0.5,-1.25,3e-05,7.0,1.0,2.0,POSITIVE", "1e+300,-0.0,2.5,-4.75,3.0,4.0,NEGATIVE",
                "6.0,0.125,-8.5,9.0,5.0,6.0,NEUTRAL"]


def text(header, rows, ends):
    """A file's text: the header and rows, line k ended by ends[k] (the last
    of ends for every later line)."""
    lines = [header, *rows]
    return "".join(line + ends[min(k, len(ends) - 1)] for k, line in enumerate(lines))


def cases(header, rows):
    quoted = [*rows[:-1], '"' + rows[-1].replace(",", '","') + '"']
    separated = rows[-1].replace(",", "\u2028,", 1)  # float() strips it
    return {
        "crlf": text(header, rows, ["\r\n"]),
        "lone_cr": text(header, rows, ["\r"]),
        "mixed_ends": text(header, rows, ["\n", "\r", "\r\n"]),
        "blank_line": text(header, rows[:2], ["\r\n"]) + "\r\n" + rows[2] + "\r\n",
        "blank_cr_line": text(header, rows[:2], ["\r"]) + "\r" + rows[2] + "\r",
        "trailing_blank_line": text(header, rows, ["\r\n"]) + "\r\n",
        "quote_in_last_line": text(header, quoted, ["\r\n"]),
        "line_separator_in_last_line": text(header, [*rows[:-1], separated], ["\r\n"]),
        "no_trailing_newline": text(header, rows, ["\r\n"])[:-2],
        "header_only": header + "\r\n",
        "bad_cell_in_last_line": text(header, [*rows[:-1], "x" + rows[-1][1:]], ["\r\n"]),
    }


HISTORY_HEADER = "epoch,train_loss,train_acc,val_loss,val_acc"
HISTORY_ROWS = ["1,0.5,-1.25,3e-05,7.0", "2,1e+300,-0.0,2.5,-4.75", "3,6.0,0.125,-8.5,9.0"]


RAW_CASES = cases(RAW_HEADER, RAW_ROWS)
FEATURE_CASES = cases(FEATURE_HEADER, FEATURE_ROWS)
HISTORY_CASES = cases(HISTORY_HEADER, HISTORY_ROWS)


def load_raw(root, body):
    """The one recording of a manifest whose file holds body, as its bytes, or
    the error; with the reader's own result on that file."""
    (root / "r.csv").write_text(body, newline="")
    (root / "manifest.csv").write_text(
        f"file,label,sample_rate_hz,channels\nr.csv,POSITIVE,256,{';'.join(dataio.DEFAULT_CHANNELS)}\n")
    channels = list(dataio.DEFAULT_CHANNELS)
    plain = dataio._read_plain_csv(str(root / "r.csv"), lambda header: header == channels, False)
    loaded = outcome(lambda: dataio.load_raw_recordings(str(root), str(root / "manifest.csv"), list))
    if isinstance(loaded[0], list):
        loaded = [rec.data.tobytes() for rec in loaded[0]]
    return (None if plain is None else (plain[0], plain[1].tobytes(), plain[2])), loaded


def load_features(root, body):
    (root / "f.csv").write_text(body, newline="")
    path = str(root / "f.csv")
    plain = dataio._read_plain_csv(path, lambda header: header[-1] == "label", labelled=True)
    loaded = outcome(lambda: dataio.load_feature_csv(path, "label"))
    if isinstance(loaded, dataio.Dataset):
        loaded = (loaded.features.tobytes(), loaded.labels.tolist(), loaded.class_names,
                  loaded.feature_names)
    return (None if plain is None else (plain[0], plain[1].tobytes(), plain[2])), loaded


def load_history(root, body):
    (root / "history.csv").write_text(body, newline="")
    path = str(root / "history.csv")
    plain = dataio._read_plain_csv(path, lambda header: header == HISTORY_HEADER.split(","),
                                   False)
    loaded = outcome(lambda: nn.load_history(path))
    if isinstance(loaded, nn.TrainHistory):
        loaded = (loaded.train_loss, loaded.train_acc, loaded.val_loss, loaded.val_acc)
    return (None if plain is None else (plain[0], plain[1].tobytes(), plain[2])), loaded


KINDS = {"raw": (load_raw, RAW_CASES), "features": (load_features, FEATURE_CASES),
         "history": (load_history, HISTORY_CASES)}


@pytest.mark.parametrize("kind,case", [(kind, c) for kind, (_, bodies) in KINDS.items()
                                       for c in sorted(bodies)])
def test_every_piece_size_reads_what_one_piece_reads(tmp_path, kind, case):
    load, body = KINDS[kind]
    body = body[case]
    want = load(tmp_path, body)
    # every size up to the file's length puts a piece end at every position
    for n in sorted({*SMALL_CHUNKS, *range(1, len(body) + 2)}):
        with chunk_chars(n):
            assert load(tmp_path, body) == want, n


def test_the_cases_take_the_paths_they_are_named_for(tmp_path):
    # the plain read parses these and refuses the others to the csv scan,
    # which reads a quote or line separator in a line to the same values
    parsed = {"crlf", "lone_cr", "mixed_ends", "no_trailing_newline"}
    same_values = parsed | {"quote_in_last_line", "line_separator_in_last_line"}
    for load, bodies in KINDS.values():
        want = load(tmp_path, bodies["crlf"])[1]
        for case, body in bodies.items():
            plain, loaded = load(tmp_path, body)
            assert (plain is not None) == (case in parsed), case
            if case in same_values:
                assert loaded == want, case
            else:
                assert loaded[0] is dataio.DataError, case


def run_in(argv, out):
    """main(argv): its exit code, stdout and stderr, and the files it wrote
    under out, by path and bytes."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    files = {}
    if os.path.isfile(out):
        files["."] = out.read_bytes()
    for d, _, names in os.walk(out):
        for name in names:
            with open(os.path.join(d, name), "rb") as fh:
                files[os.path.relpath(os.path.join(d, name), out)] = fh.read()
    return code, stdout.getvalue(), stderr.getvalue(), files


@pytest.mark.parametrize("corruption", ["none", *sorted(CORRUPTIONS)])
@pytest.mark.parametrize("target", sorted(COMMANDS))
def test_file_fuzz_gives_the_same_outcome_in_small_pieces(fuzz_pipeline, tmp_path,
                                                          target, corruption):
    work = tmp_path / "work"
    shutil.copytree(fuzz_pipeline, work)
    path = work / target
    if corruption != "none":
        path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))
    out = tmp_path / "out"
    outcomes = []
    for n in [None, *SMALL_CHUNKS]:
        with chunk_chars(n):
            outcomes.append(run_in(command(work, target, out), out))
        if out.is_dir():
            shutil.rmtree(out)
        elif out.exists():
            out.unlink()
    assert outcomes[1:] == [outcomes[0]] * len(SMALL_CHUNKS)

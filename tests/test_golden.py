"""Golden digests: fixed inputs and flags must keep producing the same bytes.

Each configuration replays a small seeded ``synth`` log through ``run`` and
hashes ``performance.csv`` and ``meta.json``, the only files it writes. A
change that alters any output on purpose must say so and re-record these
digests; a speed-up that moves a last float bit fails here. ``compare`` and
``rank`` are pinned the same way: every file ``compare --out`` writes, and
the ``ranking.json`` that ``rank --meta compare.json`` writes per scenario.

``meta.json`` records the ``--log`` argument, so the run uses a relative log
name inside the temporary directory.
"""

import hashlib

import pytest

from stability_meter.cli import main
from stability_meter.synthgen import DriftLogSpec, generate, to_csv

from tree_counts import count_trees

_BASE = ["--grace", "50", "--eval-window", "20"]

CONFIGS = {
    "static": ["--model", "static"],
    "incremental": ["--model", "incremental"],
    "window-retrain": ["--model", "window-retrain", "--retrain-every", "8"],
    "attrs": ["--model", "incremental", "--attrs", "amount,channel", "--eval-every", "5"],
    # trees with numeric and categorical splits
    "retrain-attrs": [
        "--model",
        "window-retrain",
        "--retrain-every",
        "8",
        "--attrs",
        "amount,channel",
        "--eval-every",
        "5",
    ],
    # above numpy's 128-element pairwise-summation block
    "ma-window-150": ["--model", "static", "--ma-window", "150"],
    # blocks of labels that pass several cadence points
    "window-retrain-every-1": ["--model", "window-retrain", "--retrain-every", "1"],
}

GOLDEN = {
    "static": {
        "performance.csv": "f3f93b1b16b646de6da0f53285e87d2821e092237e22a2dcfa7e1c1e44617b1e",
        "meta.json": "89cd20ab1b8ce15deee1a0f8f3bc6374c01780e466940984a7e279c7c3b7a26c",
    },
    "incremental": {
        "performance.csv": "45aded439941b4e3cdeb82c60ab18ef32955668995e48db0ce3724dac3d91d40",
        "meta.json": "09998060b423bfe36cdcc4a0fa107c44ecdafe25e3456ffd2c3675c74beadbce",
    },
    "window-retrain": {
        "performance.csv": "231bac913214890799efdb709392838578823f3f0ae92e9be4242abeb7251e34",
        "meta.json": "190cf8f659ba6d45ee5c04e79e820704ac6d158fb5ec2569765138fab9a69c18",
    },
    "attrs": {
        "performance.csv": "d3623fd702bf4f5ce03aee4b9999fbebd1e404d488c93feaa6ea54d13c0205b0",
        "meta.json": "16bc7a3c47dbbf45f2ab2cb0a9ac1030a563273fe71bdc8ada88bc151c832548",
    },
    "retrain-attrs": {
        "performance.csv": "ae87358f32f2b7ad68de149bc10fc1bc20a6ad52ce014ffca16f61dfe2778f1e",
        "meta.json": "bbf18c475d1cb606c8d977e561031cc5092191eb0fd80e6f65d6962da83c47ae",
    },
    "ma-window-150": {
        "performance.csv": "7fa1114803180c2781ae64743b34484f3ad8d3a1ae5fb221d3ef50ba87651c7e",
        "meta.json": "9c43e2c95c03ca8c9a7b42b92ce31db5e4d9ae1dfe59fc5c7fbea80b35f5d36e",
    },
    "window-retrain-every-1": {
        "performance.csv": "1b1058d650a3d60f6be4e203342b49a3dc9dd2ea198cadd4ed3de8ef830fb879",
        "meta.json": "18bf6a59695051a2771b425c69f06049ef849ef82a226b17d83046ca9706d651",
    },
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digests(out):
    assert sorted(path.name for path in out.iterdir()) == ["meta.json", "performance.csv"]
    return {
        "performance.csv": _sha256(out / "performance.csv"),
        "meta.json": _sha256(out / "meta.json"),
    }


def _write_log(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "log.csv").write_text(
        to_csv(generate(DriftLogSpec(n_cases=400, drift_at=200, seed=3)))
    )


def _run(name, tmp_path, monkeypatch, capsys):
    _write_log(tmp_path, monkeypatch)
    assert main(["run", "--log", "log.csv", "--out", "out", *_BASE, *CONFIGS[name]]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_outputs_match_recorded_digests(name, tmp_path, monkeypatch, capsys):
    _run(name, tmp_path, monkeypatch, capsys)
    assert _digests(tmp_path / "out") == GOLDEN[name]


def test_window_retrain_every_1_fits_once_per_learned_block(tmp_path, monkeypatch, capsys):
    # A fit at every cadence point made 2,619 trees; one per learned block
    # that passes a point made 1,367. Fitting ahead, a run builds the grace
    # trees, the trees predictions read and each bucket's last: 1,354. The
    # other 13 were fit where a learned block crossed a gather block, and no
    # prediction read them.
    trees = count_trees(monkeypatch)
    _run("window-retrain-every-1", tmp_path, monkeypatch, capsys)
    assert len(trees) == 1354


# All three update policies, with both attribute kinds and window-retrain trees.
COMPARE = ["--retrain-every", "8", "--attrs", "amount,channel", "--eval-every", "5"]

GOLDEN_COMPARE = {
    "compare.json": "aa9bdeec2df80d7732f63eeb52a6de3c4762352ff425d8213605cb4a44e60b57",
    "incremental/performance.csv": "28cf7ca8f5a57991dcce986c1a0b012ffcfdb4bd8ab552adb18e9e3ffd23d3f4",
    "incremental/meta.json": "bcdd87c872780c63e4b17271a38a34869a8edba43104f4c3b13725f27a1695c2",
    "static/performance.csv": "ebe20410a3b3dc38e661002930b1c54cff47643bde08d09bec7647f55969e1d8",
    "static/meta.json": "406762055828fe35fc7261cbd23871077dde5d072956ad735a06d2e1432f085b",
    "window-retrain/performance.csv": "18d4279b333be2b0549db31abce24ce91d9f8ab6f7262b068af4c7f759813cda",
    "window-retrain/meta.json": "9e32b2538c10564d4fb4a220054b17b702affb62c5d2ece5c09d9f89fc9dfdd5",
}

# Each scenario ranks the three policies in another order.
GOLDEN_RANK = {
    "hf-hr": "67ff34888caec27a273243c91255a0f0e7bbe777963e25817a0df557fa1bbad3",
    "hf-lr": "8d085f3c1cc871800e7eb8d12152f66f64ba2871b0e6fcb932ab9b502621561c",
    "lf-hr": "392156d43a3d358229aa222bb8bcd658645165f4ae1609e1402d435ee2c8b144",
}


def test_compare_outputs_match_recorded_digests(tmp_path, monkeypatch, capsys):
    _write_log(tmp_path, monkeypatch)
    assert main(["compare", "--log", "log.csv", "--out", "out", *_BASE, *COMPARE]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert sorted(path.name for path in out.iterdir()) == ["compare.json", "incremental", "static", "window-retrain"]
    digests = {"compare.json": _sha256(out / "compare.json")}
    for model in ("incremental", "static", "window-retrain"):
        digests.update({f"{model}/{name}": digest for name, digest in _digests(out / model).items()})
    assert digests == GOLDEN_COMPARE

    for scenario in sorted(GOLDEN_RANK):
        ranked = tmp_path / scenario
        assert main(["rank", "--meta", "out/compare.json", "--scenario", scenario, "--out", scenario]) == 0
        capsys.readouterr()
        assert [path.name for path in ranked.iterdir()] == ["ranking.json"]
        assert _sha256(ranked / "ranking.json") == GOLDEN_RANK[scenario], scenario

"""Golden outputs: fixed CLI runs on a tiny simulation must keep their exact bytes.

Every command below is deterministic given its flags and seed, so the sha256
of each file it writes is a fingerprint of the models' numbers down to the
last bit printed. The first fourteen digests were recorded with the
per-record model code that the columnar encoding replaced; a refactor that
changes any prediction, fold RMSE or report layout fails here.

Three later entries were recorded before the code they guard was rewritten:
- ``llm-run/script.txt`` and ``llm-run-meta/script.txt`` pin the prompt
  script's text, the second with lesson metadata (so stages a and h appear)
  and the transcription split into chunks of seven rows;
- ``fit-gbt/gbt-model.json`` pins a GBT export with row and column
  subsampling: each split's feature, threshold, gain and child hessians,
  which the prediction digests do not show.

Three were re-recorded when PFA and SPARFA moved from first-order steps to
Newton solves, which reach the optimum the old fits stopped short of:
``cv-pfa/report.json``, ``predict-pfa/predictions.csv`` and
``cv-sparfa/report.json`` (``predict-sparfa`` selects rank 0 and is unchanged).

``cv-tensor/report.json`` was re-recorded when each ALS half-sweep became one
stacked solve: the Gram matrices are summed in another order, which moves
three fold RMSEs in their last printed digit (by at most 1.2e-16).

``cv-bkt-individualized/report.json`` was re-recorded when the learner offset
search began to apply the learn-only transition at held-out attempts, as EM
and prediction do; its mean fold RMSE went from 0.5451 to 0.5442.

The last ten entries were recorded before a sweep that deleted unread names
and rewrote hand-copied field lists, to pin the outputs it touches: the BKT,
PFA, SPARFA and tensor exports, the simulation's ``truth.json``, the llm-tuned
``tune.json`` and ``tune.txt``, a report merged from two datasets (the nested
layout) and ``summary.json``.

The three ``cv-llm*`` entries were recorded before the LLM path stopped
taking lesson metadata as a separate argument and stopped rebuilding one
Dataset from the train and test rows. They pin the mock client's fold RMSEs
under cross-validation, with and without ``--meta``, and the llm-gbt
predictor, whose client picks the local model from each training split.

``cv-sparfa/report.json`` was re-recorded again when each SPARFA rank fit
moved from alternating block Newton steps to damped Newton steps on both
blocks at once. No rank fit ends higher. Fold 2 selects rank 3 and refits
it on all its cells; that fit now ends 3.1e-10 lower, and the fold's RMSE
goes from 0.5823910 to 0.5823915.

The four ``sim-matrix`` and ``sim-tensor`` entries were recorded before the
low-rank generators moved from one draw per cell in a Python loop to one
array draw. They pin each generator's ``data.csv`` and ``truth.json`` with a
quarter of the cells masked.

``fit-gbt-deep/gbt-model.json`` was recorded before each GBT tree began to
be grown from one gather of its rows, with finished rows parked in a spare
node slot. It pins a depth-6 fit with gamma and min_child_weight set, on a
larger simulation, so nodes finish at every depth from the root to the last.

``tune-mixed/tune.json`` was recorded before the folds of each ``n_trees``
group began to be boosted in lockstep. Its grid has 32 groups that differ in
``max_depth`` (1, 4), ``gamma``, ``min_child_weight``, ``subsample`` (0.6,
1.0) and ``colsample_bytree`` (0.67, 1.0). Its data holds one learner with a
single row, so the training rows of that row's fold lack the learner's id.
The sweep runs at ``--workers`` 1 and 2, and both must give these bytes.
"""

import hashlib
import json

import pytest

from lppred.cli import EXIT_OK, main

LOCAL_MODELS = ("bkt", "pfa", "sparfa", "tensor", "gbt")

GOLDEN = {
    "cv-bkt/report.json": "d993438936a644b223c50d2c95ea6518f3273c0264224cd3ca8498d74fd52c8d",
    "cv-bkt-individualized/report.json":
        "219de59a97b6edbf55d02490386d97840e7781cca8f01e4510227c31e91da8e2",
    "cv-gbt/report.json": "c449c6b9359e8974a84b26cd712a2d7eb9a88e27450ba8cb69613ab52930e56d",
    "cv-pfa/report.json": "d27c2c7c5162355bb3a340e767b37183d5b87046cf45e7571a026c2755d39d65",
    "cv-sparfa/report.json": "dafe8663c8a7d601dd0d4c0d38f94f0b78f880a75b4d2463740fd84ce27b655f",
    "cv-tensor/report.json": "1d74860f1a4a5fc37dc893fd690fb3e00594f58c8a8b5533957f8a835c620035",
    "fit-gbt/gbt-model.json": "91bf1dcbe442ed061bcdd9025fe48d0c975023eba79abe6ad808dcdca84bcd86",
    "llm-run/predictions.csv": "e76f97e255679acf45e77a89b8cca264a1dea7bf5f84f7b333f34f0f452367fa",
    "llm-run/report.json": "878f42e42ca2d3fd5250bda3c2481932d845c4d4149a6086e73b39a3861c7346",
    "llm-run/script.txt": "b2b86a8211d3f35ea5c2c4fd93d61c5612adbbd653fdab8f3478603994dd21dc",
    "llm-run-meta/script.txt": "b29ca9436fa7fb62087290cbec1612445c241bfd7a30a39d5ed560b47467ff1d",
    "predict-bkt/predictions.csv": "1ceec63bcd2479a06ff2359bb2f92c02d00eabac050c9fad71ff777efb387f92",
    "predict-gbt/predictions.csv": "0529626f1b0828a465bf23159a8d082aae090b69af22ac2580d9047599f2d3b4",
    "predict-pfa/predictions.csv": "14bbadd85a9fdc51118d5e8259f93e3333aee1487dc9d43cc0e433fa32eb6b13",
    "predict-sparfa/predictions.csv":
        "3d214b860ccbe476b3619acfeab6bc7c4ee086ac22dbaf60b8ebfbc8805f9c67",
    "predict-tensor/predictions.csv":
        "5f3349ad82a757a14fb8627d555dbd33c7de9742c0c5f1f87044f3564e410ebe",
    "tune/tune.json": "f39a93cc5902fdcbac8c5be003e3db17318f6da3b9dd855e1503287bc46cdca2",
    "fit-bkt/bkt-model.json": "f55336b5e2574c3d0613f2e817d4242f769dfddb0f894ce39cdbfdce8533d06a",
    "fit-pfa/pfa-model.json": "d99dd98f3acc5344f4fd88c7ed4a2d9e055417263adde595caab4fd3e6548dc9",
    "fit-sparfa/sparfa-model.json":
        "a4546513dab9a2a8b6eb02bf4c93a83944f55910a1c0719b1e3c7d5d4a78251c",
    "fit-tensor/tensor-model.json":
        "f4ed83786b240e4665ca7e21dc7d1fec6bf3e3be5ff5a7dc987dca89001f438d",
    "sim/truth.json": "1992991c910e5854eb083fdd3495481934f445e1fa119b53116e8812dfce92f6",
    "tune-llm/tune.json": "ea0675243514d48ff9cc34ccad37f39d5521e1c906bef026bc69514ab5656fce",
    "tune-llm/tune.txt": "71966da68c98acdfee345995963d9998dfb8af408f71f280fc0ce96d1d14d377",
    "report/report.json": "5f9029abc3a0682039087cf01a44d0c067d1e5496e049a3eaff0bdb11d8ab6d7",
    "report/report.txt": "cc1a6354bafd81d98e04fad654c0657f90d335b362ee648f1d46f99599468ecf",
    "summarize/summary.json": "ac81b657318956715cc574d2768200ba960d2a36cc30b6658a6f7e1a5aa25893",
    "cv-llm/report.json": "e8a0ce2d8a64de7c75bb4b52df2495458e74aff36a4aef43e890aaa248b9bb5c",
    "cv-llm-meta/report.json": "7b4ba4ee2b42d0c7ece8365881e59821d40e7e0de63b456d88185bc99593bfba",
    "cv-llm-gbt/report.json": "f85f25dfbff3a2639f8eddc126c25ea3971aa23f27d2e5040ea91acbb9ec002f",
    "sim-matrix/data.csv": "cedcf5425541b781ff0c33fa0885d149c2129f7f0405d3e9004596a2de617c92",
    "sim-matrix/truth.json": "817638fa4894e4fdb4a26acdddb7722c1c0dff2bc69fea1ad04284ae31ecc4b8",
    "sim-tensor/data.csv": "ebe065178c5255d07fa1b2129f054625fbf48003e6f2ef57fbeea3c0fc9f1ef6",
    "sim-tensor/truth.json": "1395adfd0b4733cf2e92100fa20b08243466375c80e6ad0fdfaf0e0bc22c325f",
    "fit-gbt-deep/gbt-model.json":
        "31e4874b4b3b905de09ba34772c74dec98f3a525d89f8c051954c85b490f2dd1",
    "tune-mixed/tune.json": "ae57e039faaa40004d60b217e76b33bad6820346531df8473199a4f6bdd035ab",
}
# the worker count changes no byte of a sweep
GOLDEN["tune-mixed-workers2/tune.json"] = GOLDEN["tune-mixed/tune.json"]


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_commands(root) -> dict[str, str]:
    """Run the fixed command set under ``root``; sha256 of each output file by name."""
    sim = root / "sim"
    assert main(["simulate", "--generator", "bkt-process", "--shape", "20x5x4", "--seed", "11",
                 "--stop-on-correct", "--out", str(sim)]) == EXIT_OK
    data = sim / "data.csv"
    header, *rows = data.read_text(encoding="utf-8").splitlines()
    train, test, targets = root / "train.csv", root / "test.csv", root / "targets.csv"
    train.write_text("\n".join([header] + [r for i, r in enumerate(rows) if i % 5]) + "\n",
                     encoding="utf-8")
    test.write_text("\n".join([header] + rows[::5]) + "\n", encoding="utf-8")
    # known ids, an unseen learner, an unseen question, an attempt past the trained range
    targets.write_text(
        f"{header}\nL1,Q1,1,\nL3,Q2,2,\nL4,Q5,3,\nLX,Q1,1,\nL2,QX,1,\nL5,Q3,9,\n", encoding="utf-8"
    )
    # titles for some questions only; one with neither options nor answer
    meta = root / "meta.json"
    meta.write_text(json.dumps({"lesson_name": "Minor Burns", "questions": {
        "Q1": {"text": "Cool the burn", "options": ["water", "ice"], "answer": "water"},
        "Q2": {"text": "Cover the burn", "options": ["cling film", "cotton"]},
        "Q4": {"text": "When to seek help"},
    }}), encoding="utf-8")
    grid = root / "grid.json"
    grid.write_text(json.dumps({"n_trees": [5, 10], "learning_rate": [0.3], "max_depth": [3],
                                "subsample": [0.8], "colsample_bytree": [0.8], "gamma": [0.0],
                                "min_child_weight": [1.0]}), encoding="utf-8")

    runs = {}
    for model in LOCAL_MODELS:
        runs[f"cv-{model}/report.json"] = ["cv", "--model", model, "--data", str(data),
                                           "--k", "5", "--seed", "7"]
        runs[f"predict-{model}/predictions.csv"] = ["predict", "--model", model, "--data",
                                                    str(data), "--targets", str(targets)]
    runs["cv-bkt-individualized/report.json"] = ["cv", "--model", "bkt", "--individualized",
                                                 "--data", str(data), "--k", "5", "--seed", "7"]
    runs["tune/tune.json"] = ["tune", "--model", "gbt", "--data", str(data), "--grid", str(grid),
                              "--k", "5", "--workers", "1"]
    runs["llm-run/report.json"] = ["llm-run", "--train", str(train), "--test", str(test),
                                   "--mock", "--repeats", "2", "--workers", "1"]
    runs["llm-run/predictions.csv"] = None  # written by the llm-run above
    runs["llm-run/script.txt"] = None
    runs["llm-run-meta/script.txt"] = ["llm-run", "--train", str(train), "--test", str(test),
                                       "--meta", str(meta), "--rows-per-chunk", "7", "--mock",
                                       "--workers", "1"]
    runs["fit-gbt/gbt-model.json"] = ["fit", "--model", "gbt", "--data", str(data),
                                      "--subsample", "0.8", "--colsample-bytree", "0.67",
                                      "--max-depth", "5"]
    for model in ("bkt", "pfa", "sparfa", "tensor"):
        runs[f"fit-{model}/{model}-model.json"] = ["fit", "--model", model, "--data", str(data)]
    runs["sim/truth.json"] = None  # written by the simulate above
    runs["tune-llm/tune.json"] = ["tune", "--method", "llm", "--mock", "--budget", "3",
                                  "--data", str(data)]
    runs["tune-llm/tune.txt"] = None
    # a second dataset name, so the merged report nests model -> dataset
    runs["cv-pfa-train/report.json"] = ["cv", "--model", "pfa", "--data", str(train),
                                        "--k", "5", "--seed", "7"]
    runs["report/report.json"] = ["report", "--inputs", str(root / "cv-bkt/report.json"),
                                  str(root / "cv-pfa-train/report.json")]
    runs["report/report.txt"] = None
    runs["summarize/summary.json"] = ["summarize", "--data", str(data)]
    runs["cv-llm/report.json"] = ["cv", "--model", "llm", "--mock", "--data", str(data),
                                  "--k", "5", "--seed", "7"]
    runs["cv-llm-meta/report.json"] = runs["cv-llm/report.json"] + ["--meta", str(meta)]
    runs["cv-llm-gbt/report.json"] = ["cv", "--model", "llm-gbt", "--mock", "--meta", str(meta),
                                      "--data", str(data), "--k", "5", "--seed", "7"]
    runs["sim-matrix/data.csv"] = ["simulate", "--generator", "low-rank-matrix", "--shape", "9x5x1",
                                   "--mask", "0.25", "--seed", "4"]
    runs["sim-matrix/truth.json"] = None
    runs["sim-tensor/data.csv"] = ["simulate", "--generator", "low-rank-tensor", "--shape", "6x4x3",
                                   "--mask", "0.25", "--seed", "4"]
    runs["sim-tensor/truth.json"] = None
    deep = root / "sim-deep"
    assert main(["simulate", "--generator", "bkt-process", "--shape", "120x10x6", "--seed", "5",
                 "--stop-on-correct", "--out", str(deep)]) == EXIT_OK
    runs["fit-gbt-deep/gbt-model.json"] = ["fit", "--model", "gbt", "--data", str(deep / "data.csv"),
                                           "--max-depth", "6", "--gbt-gamma", "0.5",
                                           "--min-child-weight", "4"]

    mixed = root / "mixed.csv"
    mixed.write_text(data.read_text(encoding="utf-8") + "LZ,Q2,1,0\n", encoding="utf-8")
    mixed_grid = root / "mixed-grid.json"
    mixed_grid.write_text(json.dumps({"n_trees": [4, 9], "learning_rate": [0.3], "max_depth": [1, 4],
                                      "subsample": [0.6, 1.0], "colsample_bytree": [0.67, 1.0],
                                      "gamma": [0.0, 0.5], "min_child_weight": [1.0, 3.0]}),
                          encoding="utf-8")
    for name, workers in (("tune-mixed", "1"), ("tune-mixed-workers2", "2")):
        runs[f"{name}/tune.json"] = ["tune", "--model", "gbt", "--data", str(mixed), "--grid",
                                     str(mixed_grid), "--k", "5", "--workers", workers]

    digests = {}
    for name, argv in runs.items():
        out = root / name.split("/")[0]
        if argv is not None:
            assert main(argv + ["--out", str(out)]) == EXIT_OK, name
        digests[name] = _sha(root / name)
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_commands(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_unchanged(digests, name):
    assert digests[name] == GOLDEN[name]

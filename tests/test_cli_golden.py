"""Golden CLI output: every subcommand x format (x --method) at small orders,
and the argparse error and help text of every subcommand.

Each entry pins the sha256 of stdout and the exit code of one command on
``hopf``, ``k3`` or an inline twisted dataset with ``nested_diamonds``.
The argparse pins hold the exact stderr of each argument error (exit 1,
empty stdout) and the digest of each ``--help`` text.
A change that is meant to keep the output byte-identical must keep every
digest; a change that alters output on purpose records new digests.
"""

import hashlib
import json

import pytest
from conftest import run_cli

# powers k = 0..5 of a twisted line bundle, entries small enough to read
TWISTED = {
    "name": "twisted_golden",
    "max_power": 5,
    "diamonds": [
        [[1, 0, 1], [0, 2, 0], [1, 0, 1]],
        [[2, 1, 0], [0, 1, 1], [0, 0, 1]],
        [[1, 0, 2], [1, 0, 0], [0, 1, 1]],
        [[3, 1, 0], [0, 2, 0], [1, 0, 0]],
        [[0, 0, 1], [2, 1, 0], [1, 0, 2]],
        [[1, 2, 0], [0, 0, 1], [2, 0, 1]],
    ],
    "nested_diamonds": [
        [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[2, 0, 1], [0, 0, 1], [1, 0, 0]],
        [[0, 1, 1], [1, 2, 0], [0, 0, 1]],
        [[1, 1, 0], [0, 0, 0], [0, 1, 2]],
        [[0, 0, 2], [1, 0, 1], [1, 1, 0]],
    ],
    "deformation": {"hT": [0, 2, 1], "hO": [1, 1, 0], "hW2": [1, 0, 1], "connected": True},
}

DIAMOND_FORMATS = (None, "diamond", "latex", "json", "poly")


def _commands() -> list[tuple[str, ...]]:
    def formats(args, choices):
        return [args + (("--format", f) if f else ()) for f in choices]

    out: list[tuple[str, ...]] = []
    out += formats(("hilb", "-n", "3"), DIAMOND_FORMATS)
    out += formats(("hilb", "-N", "5"), DIAMOND_FORMATS)
    for k in ("0", "1"):
        out += formats(("sym", "-a", "2", "-k", k), DIAMOND_FORMATS)
    out += formats(("nested", "-n", "3"), DIAMOND_FORMATS)
    for method in ("product", "exp", "hodge"):
        out += formats(("chiy", "-N", "5", "--method", method), (None, "json", "poly"))
    out += formats(("betti", "-N", "5"), (None, "json", "text"))
    out += formats(("hh", "-n", "3"), (None, "json", "text"))
    out += formats(("deform", "-n", "3"), (None, "json", "text"))
    out.append(("verify", "-N", "4"))
    return out


# "<dataset> <argv>": (exit code, sha256 of stdout)
GOLDEN = {
    "hopf hilb -n 3": (0, "afe7fc912add2d62b71119ffca03af3f032bc7e3c471c8d6ffa288f9d62ddd63"),
    "hopf hilb -n 3 --format diamond": (0, "afe7fc912add2d62b71119ffca03af3f032bc7e3c471c8d6ffa288f9d62ddd63"),
    "hopf hilb -n 3 --format latex": (0, "75e949373f1e6c78c6b0cf75e5c0feafe69b48077bbdd4b9015c6c0d005ebed6"),
    "hopf hilb -n 3 --format json": (0, "931ec3ccb075a8b156dcdc9e8372cf7dd8fc593377910439f79721977450726e"),
    "hopf hilb -n 3 --format poly": (0, "b1039137d7e0429ec06a0bca16a15e24a2ad242e6cd15a47d4ed949d9ed7480e"),
    "hopf hilb -N 5": (0, "6754094a5392eb3150e23c81d8ddf57283eb477103fae2972cafed32eb4f5dc2"),
    "hopf hilb -N 5 --format diamond": (0, "ad632148085948e2659007dc7ae1ba72c81f620f36037f8866a13515676d1492"),
    "hopf hilb -N 5 --format latex": (0, "27ad9c626b24243205daaec6b26e4dad555891db129a13db1e54fa0e8df2b399"),
    "hopf hilb -N 5 --format json": (0, "6754094a5392eb3150e23c81d8ddf57283eb477103fae2972cafed32eb4f5dc2"),
    "hopf hilb -N 5 --format poly": (0, "c6d95afb383b3cb8c9b50321051ddf6df506d77c6036c3a9efb840b9d0993b1f"),
    "hopf sym -a 2 -k 0": (0, "b2d027e974d02cd8321e9c01bcd3754ecef52bb87f0aeff752a31879fafc3b54"),
    "hopf sym -a 2 -k 0 --format diamond": (0, "b2d027e974d02cd8321e9c01bcd3754ecef52bb87f0aeff752a31879fafc3b54"),
    "hopf sym -a 2 -k 0 --format latex": (0, "9902647ca1715c1d304efe6043d9c60519659f331e66ab81a8f3b66f18adfa66"),
    "hopf sym -a 2 -k 0 --format json": (0, "fbee22cce7082eceb5066f0b228e7c370d3457af4e3dfb7f39239b08eddb512c"),
    "hopf sym -a 2 -k 0 --format poly": (0, "e7d102f4fe2ec2b2b7555dd8f09c2ecdb6bc6838e714449747d533774ec8876c"),
    "hopf sym -a 2 -k 1": (0, "b2d027e974d02cd8321e9c01bcd3754ecef52bb87f0aeff752a31879fafc3b54"),
    "hopf sym -a 2 -k 1 --format diamond": (0, "b2d027e974d02cd8321e9c01bcd3754ecef52bb87f0aeff752a31879fafc3b54"),
    "hopf sym -a 2 -k 1 --format latex": (0, "9902647ca1715c1d304efe6043d9c60519659f331e66ab81a8f3b66f18adfa66"),
    "hopf sym -a 2 -k 1 --format json": (0, "fbee22cce7082eceb5066f0b228e7c370d3457af4e3dfb7f39239b08eddb512c"),
    "hopf sym -a 2 -k 1 --format poly": (0, "e7d102f4fe2ec2b2b7555dd8f09c2ecdb6bc6838e714449747d533774ec8876c"),
    "hopf nested -n 3": (0, "088c14b1a3bcdcad471729023fdbfe577fcabc415c4179184383012d89080c70"),
    "hopf nested -n 3 --format diamond": (0, "088c14b1a3bcdcad471729023fdbfe577fcabc415c4179184383012d89080c70"),
    "hopf nested -n 3 --format latex": (0, "b9464f8c588173e85cf96597e82054fd6c324b877c5a339413fc43855d27ed88"),
    "hopf nested -n 3 --format json": (0, "669bdd5c7ef48ec9c7407e33815a1fd9388acb80fd98603b1ae21a378614c22a"),
    "hopf nested -n 3 --format poly": (0, "2a49290df571b59be704c61d15358530e03ca5d58a0f10fbb06f2fb38f220b6c"),
    "hopf chiy -N 5 --method product": (0, "ad16029fa256c8eae892e35a45c9c4f30d9013a856c1719901a43c47d5a70e55"),
    "hopf chiy -N 5 --method product --format json": (0, "ad16029fa256c8eae892e35a45c9c4f30d9013a856c1719901a43c47d5a70e55"),
    "hopf chiy -N 5 --method product --format poly": (0, "32e7a139b2c82bcb0dd392568352e6430f83ccca5beb83e47b267bf4a681af42"),
    "hopf chiy -N 5 --method exp": (0, "ad16029fa256c8eae892e35a45c9c4f30d9013a856c1719901a43c47d5a70e55"),
    "hopf chiy -N 5 --method exp --format json": (0, "ad16029fa256c8eae892e35a45c9c4f30d9013a856c1719901a43c47d5a70e55"),
    "hopf chiy -N 5 --method exp --format poly": (0, "32e7a139b2c82bcb0dd392568352e6430f83ccca5beb83e47b267bf4a681af42"),
    "hopf chiy -N 5 --method hodge": (0, "ad16029fa256c8eae892e35a45c9c4f30d9013a856c1719901a43c47d5a70e55"),
    "hopf chiy -N 5 --method hodge --format json": (0, "ad16029fa256c8eae892e35a45c9c4f30d9013a856c1719901a43c47d5a70e55"),
    "hopf chiy -N 5 --method hodge --format poly": (0, "32e7a139b2c82bcb0dd392568352e6430f83ccca5beb83e47b267bf4a681af42"),
    "hopf betti -N 5": (0, "f341e5a3415121915956814cae8fba18fb210a12db103cc58973bb9e2b82d8ba"),
    "hopf betti -N 5 --format json": (0, "f341e5a3415121915956814cae8fba18fb210a12db103cc58973bb9e2b82d8ba"),
    "hopf betti -N 5 --format text": (0, "f2f3803d2a590cfebbbc2d5da5d33d97a72258138f70b8a405e8061fbb596bee"),
    "hopf hh -n 3": (0, "5dcd14896d5b055bd609ba68b571097857cb64b29c11beddb131c2380dd298c4"),
    "hopf hh -n 3 --format json": (0, "5dcd14896d5b055bd609ba68b571097857cb64b29c11beddb131c2380dd298c4"),
    "hopf hh -n 3 --format text": (0, "c9d0b31d313d9310f40169f29f7d6c980865c6e2bc0b5deec437385e8eb07649"),
    "hopf deform -n 3": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hopf deform -n 3 --format json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hopf deform -n 3 --format text": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hopf verify -N 4": (0, "02e5d9f0c5c2fb960457b7a4b18e3fc45f9a4b0f45d85340df140894e86e0a2e"),
    "k3 hilb -n 3": (0, "c13535d5472dfa53a31b622d15dbdb3ab9fdea7e90b0f30af20b9a192c264e99"),
    "k3 hilb -n 3 --format diamond": (0, "c13535d5472dfa53a31b622d15dbdb3ab9fdea7e90b0f30af20b9a192c264e99"),
    "k3 hilb -n 3 --format latex": (0, "8d27eda9df2859b1a7e53aa9041f15da21afd08d74bedb32c50c81c05a1e9bc7"),
    "k3 hilb -n 3 --format json": (0, "125af1f5bce945ae361a118f3b0a904c2e7348a61934c169597577f6388139c9"),
    "k3 hilb -n 3 --format poly": (0, "6e4a6e49098234f181ae833fe2fc4ef1259b4427cf9147824546ed0b2cf44022"),
    "k3 hilb -N 5": (0, "8d4a7dbb5309c4787e285949e25153adf860c455b2c20063a461a82168eadf0d"),
    "k3 hilb -N 5 --format diamond": (0, "b970f6c2c505a647fff45495be9329c66fd293af477eed11fb829a21aa44301d"),
    "k3 hilb -N 5 --format latex": (0, "c5a98def827ab4dc6fa0cc8ab81fff7b9100dc3fc2e52e1995fc1b9bd756c336"),
    "k3 hilb -N 5 --format json": (0, "8d4a7dbb5309c4787e285949e25153adf860c455b2c20063a461a82168eadf0d"),
    "k3 hilb -N 5 --format poly": (0, "3f22632e69676fbd80ffe70c6345886d225e57cb43cb9e93552a5c95d42f4a9b"),
    "k3 sym -a 2 -k 0": (0, "aa6bdf30c9f569e92667f6654ca5db9b03c227c98d6df10bb198cb25e2481e4c"),
    "k3 sym -a 2 -k 0 --format diamond": (0, "aa6bdf30c9f569e92667f6654ca5db9b03c227c98d6df10bb198cb25e2481e4c"),
    "k3 sym -a 2 -k 0 --format latex": (0, "23b116c83a1577589f1961d7adee9a0c3510a131655e8dc8af291320b24ba687"),
    "k3 sym -a 2 -k 0 --format json": (0, "24a621aba9e017628f17c07d4aaad575c4437335aebfe7d121d7e071f862e00e"),
    "k3 sym -a 2 -k 0 --format poly": (0, "e19dfd6c7c752bc666b1cce288669acb8caf21ac75e9257570c2dbd92293b287"),
    "k3 sym -a 2 -k 1": (0, "aa6bdf30c9f569e92667f6654ca5db9b03c227c98d6df10bb198cb25e2481e4c"),
    "k3 sym -a 2 -k 1 --format diamond": (0, "aa6bdf30c9f569e92667f6654ca5db9b03c227c98d6df10bb198cb25e2481e4c"),
    "k3 sym -a 2 -k 1 --format latex": (0, "23b116c83a1577589f1961d7adee9a0c3510a131655e8dc8af291320b24ba687"),
    "k3 sym -a 2 -k 1 --format json": (0, "24a621aba9e017628f17c07d4aaad575c4437335aebfe7d121d7e071f862e00e"),
    "k3 sym -a 2 -k 1 --format poly": (0, "e19dfd6c7c752bc666b1cce288669acb8caf21ac75e9257570c2dbd92293b287"),
    "k3 nested -n 3": (0, "5815392a8a19c1973a442c47a6a1df5de016736e9af024dc305b405f5140cdbb"),
    "k3 nested -n 3 --format diamond": (0, "5815392a8a19c1973a442c47a6a1df5de016736e9af024dc305b405f5140cdbb"),
    "k3 nested -n 3 --format latex": (0, "955bcc6ec5d842f1b80ba92c465272e6e14ec7b5eab801eacc1643ef62ec8399"),
    "k3 nested -n 3 --format json": (0, "5f2f1bb7e0ee7f8af425f27341f09a1506c20c12e202ed514b46a350c616e115"),
    "k3 nested -n 3 --format poly": (0, "051c9908fd464c371ac268b2444b2875b5b7063b6ffc757a38fb67f711741e79"),
    "k3 chiy -N 5 --method product": (0, "efe75e76796d349ce4d1415a7c509c996faa0de1dd1959f1cb61e58c84b83b4c"),
    "k3 chiy -N 5 --method product --format json": (0, "efe75e76796d349ce4d1415a7c509c996faa0de1dd1959f1cb61e58c84b83b4c"),
    "k3 chiy -N 5 --method product --format poly": (0, "5ab47288878dc25a919082a83f6af2105a6a8faae2ffd50f3d639a5884f3a907"),
    "k3 chiy -N 5 --method exp": (0, "efe75e76796d349ce4d1415a7c509c996faa0de1dd1959f1cb61e58c84b83b4c"),
    "k3 chiy -N 5 --method exp --format json": (0, "efe75e76796d349ce4d1415a7c509c996faa0de1dd1959f1cb61e58c84b83b4c"),
    "k3 chiy -N 5 --method exp --format poly": (0, "5ab47288878dc25a919082a83f6af2105a6a8faae2ffd50f3d639a5884f3a907"),
    "k3 chiy -N 5 --method hodge": (0, "efe75e76796d349ce4d1415a7c509c996faa0de1dd1959f1cb61e58c84b83b4c"),
    "k3 chiy -N 5 --method hodge --format json": (0, "efe75e76796d349ce4d1415a7c509c996faa0de1dd1959f1cb61e58c84b83b4c"),
    "k3 chiy -N 5 --method hodge --format poly": (0, "5ab47288878dc25a919082a83f6af2105a6a8faae2ffd50f3d639a5884f3a907"),
    "k3 betti -N 5": (0, "26d318fbebbe14d84b789624c13a757b4a27b99add0434cc425bfa40d00a0cf8"),
    "k3 betti -N 5 --format json": (0, "26d318fbebbe14d84b789624c13a757b4a27b99add0434cc425bfa40d00a0cf8"),
    "k3 betti -N 5 --format text": (0, "b660665496a38f9a3b6fa405fad10f7afa76a0d9a00ed18ff5018ee2e2b2f7ed"),
    "k3 hh -n 3": (0, "1b348c7fda5064f481a68efba24c94075e232ec49d1512b9042fbbb410350e88"),
    "k3 hh -n 3 --format json": (0, "1b348c7fda5064f481a68efba24c94075e232ec49d1512b9042fbbb410350e88"),
    "k3 hh -n 3 --format text": (0, "90a52f24ea95cdd1a34ae2b1e8e318e4c6d9d5ed0ba7e7ca8bb8ddefa35e8506"),
    "k3 deform -n 3": (0, "f4f1f74bdb397386cb5e76a3f2e43afc54356fba3f42cd8e17d5ac82da4c6313"),
    "k3 deform -n 3 --format json": (0, "74ec34d8ea526e05bb2ab277ce11e6abf2220508e775eb68e56ccf1eab2386ef"),
    "k3 deform -n 3 --format text": (0, "f4f1f74bdb397386cb5e76a3f2e43afc54356fba3f42cd8e17d5ac82da4c6313"),
    "k3 verify -N 4": (0, "ec69a1034444179e62845be1cd67d0ffc65bfeba66c0453c7171c7742ce6aa58"),
    "twisted hilb -n 3": (0, "31530f5a1868809bef77b2dc51cc1d9d335d8aa914e80ff0f24f370e34329703"),
    "twisted hilb -n 3 --format diamond": (0, "31530f5a1868809bef77b2dc51cc1d9d335d8aa914e80ff0f24f370e34329703"),
    "twisted hilb -n 3 --format latex": (0, "535a4101c2f495c0dadb2656d6e3c9e6f2b237d584b656ac6cf20f60770b48ea"),
    "twisted hilb -n 3 --format json": (0, "f390c39de58f9e2998337939cd1350a8e166b6251da1232c8ef5ce7232bcc59b"),
    "twisted hilb -n 3 --format poly": (0, "d0f8d0730e89ca2f414bdfba3f4fedf15b73391e38e18d28c3a4d4c24496f214"),
    "twisted hilb -N 5": (0, "9a1190ab4bdfc273abe8b725bf2b08e7d6dd5647b517d0fe28f99653b9d5c114"),
    "twisted hilb -N 5 --format diamond": (0, "ad8a6a7a99bcdf45f753be0f423d184021f18aab16210ec1bb5125a0b542980a"),
    "twisted hilb -N 5 --format latex": (0, "7cdb7c08c77244ce6636cd47d9013316ee19928eb71976338f20d383ef1fd761"),
    "twisted hilb -N 5 --format json": (0, "9a1190ab4bdfc273abe8b725bf2b08e7d6dd5647b517d0fe28f99653b9d5c114"),
    "twisted hilb -N 5 --format poly": (0, "07a6e0b27588e088f6d86fe9b5efeb3b0d8c5d3b077d30f04856e20d0fc425f1"),
    "twisted sym -a 2 -k 0": (0, "d3b395e8a1a7236d48c19d19f7beb4434f6bea41c764d829721751a368faac9d"),
    "twisted sym -a 2 -k 0 --format diamond": (0, "d3b395e8a1a7236d48c19d19f7beb4434f6bea41c764d829721751a368faac9d"),
    "twisted sym -a 2 -k 0 --format latex": (0, "c6156132628edc147204f4ddd65bddc26bb90a8c312063b77e1984b68f6288f4"),
    "twisted sym -a 2 -k 0 --format json": (0, "2d109ceeff7b8e2a1340946fc54303ac7ba0b806b27ab84b216e70017fff817e"),
    "twisted sym -a 2 -k 0 --format poly": (0, "80f2f3575c8953f85fac1d02f43a158f6dabcb421fbee2613464a7a4ab3e841a"),
    "twisted sym -a 2 -k 1": (0, "634c279a18ab45768f3e3629ea37477eabcd415ec22f8441771acbff380fd404"),
    "twisted sym -a 2 -k 1 --format diamond": (0, "634c279a18ab45768f3e3629ea37477eabcd415ec22f8441771acbff380fd404"),
    "twisted sym -a 2 -k 1 --format latex": (0, "15328c28ab025c0c13ed1793ee71a71ed31123eeb9ef0db7086be0c18385fb15"),
    "twisted sym -a 2 -k 1 --format json": (0, "17a4574baccd23929458fe397a5acac233e2b3ec2413992243dd6cbcddcbbc78"),
    "twisted sym -a 2 -k 1 --format poly": (0, "5e0215f0c6b38b4a683e6f8e49b40e6b1162dfda8d0282d4dcbfe78953838f4b"),
    "twisted nested -n 3": (0, "098c3eaca90b520bfd34990e5b5160d64b6f17b7c0fbfb4296fe5f2d7d715fba"),
    "twisted nested -n 3 --format diamond": (0, "098c3eaca90b520bfd34990e5b5160d64b6f17b7c0fbfb4296fe5f2d7d715fba"),
    "twisted nested -n 3 --format latex": (0, "4e55b62581a5ee480defbef21f62a85b24290ba0db16c1c6616cd0fcc6952eb4"),
    "twisted nested -n 3 --format json": (0, "fa3d6e8d9ad8c097a49d25b3cf96ad36dd9cf42555fc135c0a1995e030596c2d"),
    "twisted nested -n 3 --format poly": (0, "d7d41c277401ae9b05a6f0d85cfab83d1939df4a53ce8302aad8cb373ea7d6bb"),
    "twisted chiy -N 5 --method product": (0, "e222c4889b847edc005d87382128a9f2f2cb141874540ff2fb871c7db852a0ce"),
    "twisted chiy -N 5 --method product --format json": (0, "e222c4889b847edc005d87382128a9f2f2cb141874540ff2fb871c7db852a0ce"),
    "twisted chiy -N 5 --method product --format poly": (0, "84a6785a582598e052349e2493a282261d74da32e5da46879c734d0371ad75a2"),
    "twisted chiy -N 5 --method exp": (0, "e222c4889b847edc005d87382128a9f2f2cb141874540ff2fb871c7db852a0ce"),
    "twisted chiy -N 5 --method exp --format json": (0, "e222c4889b847edc005d87382128a9f2f2cb141874540ff2fb871c7db852a0ce"),
    "twisted chiy -N 5 --method exp --format poly": (0, "84a6785a582598e052349e2493a282261d74da32e5da46879c734d0371ad75a2"),
    "twisted chiy -N 5 --method hodge": (0, "e222c4889b847edc005d87382128a9f2f2cb141874540ff2fb871c7db852a0ce"),
    "twisted chiy -N 5 --method hodge --format json": (0, "e222c4889b847edc005d87382128a9f2f2cb141874540ff2fb871c7db852a0ce"),
    "twisted chiy -N 5 --method hodge --format poly": (0, "84a6785a582598e052349e2493a282261d74da32e5da46879c734d0371ad75a2"),
    "twisted betti -N 5": (0, "d911b479a09a669f7f619603607d038f7aedceb5371b1473918b0cdf9fdf9a99"),
    "twisted betti -N 5 --format json": (0, "d911b479a09a669f7f619603607d038f7aedceb5371b1473918b0cdf9fdf9a99"),
    "twisted betti -N 5 --format text": (0, "e33df18e08dcdbb3fd314ebc24dcbc05e26cd25311bb1c3b8f31c1ab8c2a10c3"),
    "twisted hh -n 3": (0, "19e778b07d59854192e8c4fb6531a1bbb64029a6fe3b9662e2c0a4d71860315c"),
    "twisted hh -n 3 --format json": (0, "19e778b07d59854192e8c4fb6531a1bbb64029a6fe3b9662e2c0a4d71860315c"),
    "twisted hh -n 3 --format text": (0, "906cb50a4e990a2935e646ef6fba70279d657e246b18cfd4720faa029dad6d26"),
    "twisted deform -n 3": (0, "650e5e6858cf02b75f8092c166fc3c1729c184d36bf284f327a428f6b68d404c"),
    "twisted deform -n 3 --format json": (0, "86b5d949ec0560ce980662ba67b0fafe0a7565ac4cb583259b98b3fe6beb19c9"),
    "twisted deform -n 3 --format text": (0, "650e5e6858cf02b75f8092c166fc3c1729c184d36bf284f327a428f6b68d404c"),
    "twisted verify -N 4": (0, "1704b3ae2abc800c1e54e6bfaf6eb9bcb65f4d8698b6392e6915290c83b14f5c"),
}


def _key(dataset: str, argv: tuple[str, ...]) -> str:
    return f"{dataset} {' '.join(argv)}"


@pytest.fixture(scope="module")
def dataset_args(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "twisted.json"
    path.write_text(json.dumps(TWISTED))
    return {
        "hopf": ("--preset", "hopf"),
        "k3": ("--preset", "k3"),
        "twisted": ("--input", str(path)),
    }


def test_golden_covers_every_command():
    want = {_key(d, argv) for d in ("hopf", "k3", "twisted") for argv in _commands()}
    assert set(GOLDEN) == want


@pytest.mark.parametrize("dataset", ["hopf", "k3", "twisted"])
def test_cli_output_matches_golden_digests(dataset, dataset_args):
    for argv in _commands():
        command, *rest = argv
        code, out, _ = run_cli(command, *dataset_args[dataset], *rest)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest) == GOLDEN[_key(dataset, argv)], _key(dataset, argv)


# -- the argparse surface: error text and help, at COLUMNS=80 ------------------
#
# Recorded on Python 3.11; argparse's wording is the same on 3.10.

# usage block each parser prints above its error line, by prog
USAGE = {
    'hilbhodge': (
        'usage: hilbhodge [-h] {hilb,sym,nested,chiy,betti,hh,deform,verify} ...\n'
    ),
    'hilbhodge hilb': (
        'usage: hilbhodge hilb [-h]\n'
        '                      (--preset {bielliptic_ord2,bielliptic_ord3,enriques,hopf,inoue,k3,kodaira_secondary,p2,torus} | --input FILE)\n'
        '                      (-n N | -N N) [--format {diamond,latex,json,poly}]\n'
    ),
    'hilbhodge sym': (
        'usage: hilbhodge sym [-h]\n'
        '                     (--preset {bielliptic_ord2,bielliptic_ord3,enriques,hopf,inoue,k3,kodaira_secondary,p2,torus} | --input FILE)\n'
        '                     -a A [-k K] [--format {diamond,latex,json,poly}]\n'
    ),
    'hilbhodge nested': (
        'usage: hilbhodge nested [-h]\n'
        '                        (--preset {bielliptic_ord2,bielliptic_ord3,enriques,hopf,inoue,k3,kodaira_secondary,p2,torus} | --input FILE)\n'
        '                        -n N [--format {diamond,latex,json,poly}]\n'
    ),
    'hilbhodge chiy': (
        'usage: hilbhodge chiy [-h]\n'
        '                      (--preset {bielliptic_ord2,bielliptic_ord3,enriques,hopf,inoue,k3,kodaira_secondary,p2,torus} | --input FILE)\n'
        '                      -N N [--method {product,exp,hodge}]\n'
        '                      [--format {json,poly}]\n'
    ),
    'hilbhodge betti': (
        'usage: hilbhodge betti [-h]\n'
        '                       (--preset {bielliptic_ord2,bielliptic_ord3,enriques,hopf,inoue,k3,kodaira_secondary,p2,torus} | --input FILE)\n'
        '                       -N N [--format {json,text}]\n'
    ),
    'hilbhodge hh': (
        'usage: hilbhodge hh [-h]\n'
        '                    (--preset {bielliptic_ord2,bielliptic_ord3,enriques,hopf,inoue,k3,kodaira_secondary,p2,torus} | --input FILE)\n'
        '                    -n N [--format {json,text}]\n'
    ),
    'hilbhodge deform': (
        'usage: hilbhodge deform [-h]\n'
        '                        (--preset {bielliptic_ord2,bielliptic_ord3,enriques,hopf,inoue,k3,kodaira_secondary,p2,torus} | --input FILE)\n'
        '                        -n N [--qmax QMAX] [--format {json,text}]\n'
    ),
    'hilbhodge verify': (
        'usage: hilbhodge verify [-h]\n'
        '                        (--preset {bielliptic_ord2,bielliptic_ord3,enriques,hopf,inoue,k3,kodaira_secondary,p2,torus} | --input FILE)\n'
        '                        -N N\n'
    ),
}
# argv: the error line; stderr is USAGE[prog] followed by this line
ARG_ERRORS = {
    '': 'hilbhodge: error: the following arguments are required: command\n',
    'bogus': "hilbhodge: error: argument command: invalid choice: 'bogus' (choose from 'hilb', 'sym', 'nested', 'chiy', 'betti', 'hh', 'deform', 'verify')\n",
    'hilb -n 1': 'hilbhodge hilb: error: one of the arguments --preset --input is required\n',
    'hilb --preset k3': 'hilbhodge hilb: error: one of the arguments -n -N is required\n',
    'hilb --preset k3 -n 1 --format x': "hilbhodge hilb: error: argument --format: invalid choice: 'x' (choose from 'diamond', 'latex', 'json', 'poly')\n",
    'hilb --preset k3 -n -1': 'hilbhodge hilb: error: argument -n: must be nonnegative, got -1\n',
    'sym -a 1': 'hilbhodge sym: error: one of the arguments --preset --input is required\n',
    'sym --preset k3': 'hilbhodge sym: error: the following arguments are required: -a\n',
    'sym --preset k3 -a 1 --format x': "hilbhodge sym: error: argument --format: invalid choice: 'x' (choose from 'diamond', 'latex', 'json', 'poly')\n",
    'sym --preset k3 -a -1': 'hilbhodge sym: error: argument -a: must be nonnegative, got -1\n',
    'nested -n 1': 'hilbhodge nested: error: one of the arguments --preset --input is required\n',
    'nested --preset k3': 'hilbhodge nested: error: the following arguments are required: -n\n',
    'nested --preset k3 -n 1 --format x': "hilbhodge nested: error: argument --format: invalid choice: 'x' (choose from 'diamond', 'latex', 'json', 'poly')\n",
    'nested --preset k3 -n -1': 'hilbhodge nested: error: argument -n: must be nonnegative, got -1\n',
    'chiy -N 1': 'hilbhodge chiy: error: one of the arguments --preset --input is required\n',
    'chiy --preset k3': 'hilbhodge chiy: error: the following arguments are required: -N\n',
    'chiy --preset k3 -N 1 --format x': "hilbhodge chiy: error: argument --format: invalid choice: 'x' (choose from 'json', 'poly')\n",
    'chiy --preset k3 -N -1': 'hilbhodge chiy: error: argument -N: must be nonnegative, got -1\n',
    'betti -N 1': 'hilbhodge betti: error: one of the arguments --preset --input is required\n',
    'betti --preset k3': 'hilbhodge betti: error: the following arguments are required: -N\n',
    'betti --preset k3 -N 1 --format x': "hilbhodge betti: error: argument --format: invalid choice: 'x' (choose from 'json', 'text')\n",
    'betti --preset k3 -N -1': 'hilbhodge betti: error: argument -N: must be nonnegative, got -1\n',
    'hh -n 1': 'hilbhodge hh: error: one of the arguments --preset --input is required\n',
    'hh --preset k3': 'hilbhodge hh: error: the following arguments are required: -n\n',
    'hh --preset k3 -n 1 --format x': "hilbhodge hh: error: argument --format: invalid choice: 'x' (choose from 'json', 'text')\n",
    'hh --preset k3 -n -1': 'hilbhodge hh: error: argument -n: must be nonnegative, got -1\n',
    'deform -n 1': 'hilbhodge deform: error: one of the arguments --preset --input is required\n',
    'deform --preset k3': 'hilbhodge deform: error: the following arguments are required: -n\n',
    'deform --preset k3 -n 1 --format x': "hilbhodge deform: error: argument --format: invalid choice: 'x' (choose from 'json', 'text')\n",
    'deform --preset k3 -n -1': 'hilbhodge deform: error: argument -n: must be nonnegative, got -1\n',
    'verify -N 1': 'hilbhodge verify: error: one of the arguments --preset --input is required\n',
    'verify --preset k3': 'hilbhodge verify: error: the following arguments are required: -N\n',
    'verify --preset k3 -N 1 --format x': 'hilbhodge: error: unrecognized arguments: --format x\n',
    'verify --preset k3 -N -1': 'hilbhodge verify: error: argument -N: must be nonnegative, got -1\n',
    'hilb --preset k3 -N -1': 'hilbhodge hilb: error: argument -N: must be nonnegative, got -1\n',
    'sym --preset k3 -a 1 -k -1': 'hilbhodge sym: error: argument -k: must be nonnegative, got -1\n',
    'deform --preset k3 -n 1 --qmax -1': 'hilbhodge deform: error: argument --qmax: must be nonnegative, got -1\n',
    'hilb --preset k3 -n 1 -N 1': 'hilbhodge hilb: error: argument -N: not allowed with argument -n\n',
}
# argv: sha256 of the --help text on stdout
HELP = {
    '--help': '20e3d570318a1597eed15551b7268bcf635f0e6457d23bee013b83ca092fc2a5',
    'hilb --help': '17e63249b970b692ee2c0be1cf95f10a5e93b527b4fcb249c6a068aa6c1f5464',
    'sym --help': '116c3d0d380e26387e61cafd2277b277bfec229addc703da50ec46fdfdefbc59',
    'nested --help': '9c1fb2fc14f2775d1f8517a15fc96ad13d2c27430d304c665e5af319d5c5aa52',
    'chiy --help': '0a197331d693d357cb44d131538aad1336773a4e75d041701ffafb70cc39ae9d',
    'betti --help': '73cc00493b1be86938d4fa5825a5c6d7f3a90d22662ca2be569552e8f54d3768',
    'hh --help': '1d99ff0a4e5d08556e8fcbed0c35cd834baa8d556affedc74dbd5012f907954a',
    'deform --help': '726a6fab526b06f00f3056c6fc7f89b4a949ff2453219b7df21545f76be6e9f6',
    'verify --help': '3136f27dbbda7c87e67eef6a553face23156fef4d9720cd5a6e653ac494006b4',
}


@pytest.fixture
def columns_80(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to it


@pytest.mark.parametrize("argv", sorted(ARG_ERRORS))
def test_argument_errors_match_golden_stderr(argv, columns_80):
    line = ARG_ERRORS[argv]
    prog = line.split(": error: ")[0]
    assert run_cli(*argv.split()) == (1, "", USAGE[prog] + line)


@pytest.mark.parametrize("argv", sorted(HELP))
def test_help_matches_golden_digest(argv, columns_80):
    code, out, err = run_cli(*argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP[argv]

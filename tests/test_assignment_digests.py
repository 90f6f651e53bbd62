"""Golden assignment digests: every partitioner of the validity matrix
must reproduce, bit for bit, the assignment it produced when these
digests were recorded, and must give the same assignment when run
twice on the same input.

A refactor or a performance change to a partitioner must leave its
assignments — and so RF, balance and every processing cost derived
from them — unchanged. If a change is *meant* to alter an assignment,
re-record the affected digests and say why in CHANGES.md.
"""
import hashlib

import pytest

from repro.core import (
    dbh_np,
    partition_hep,
    partition_ne,
    partition_simple_hybrid,
    partition_sne,
    partition_streaming,
)

from .conftest import TEST_GRAPHS, tiny_graph

PARTITIONERS = {
    "hep-100": lambda el, k: partition_hep(el, k=k, tau=100.0),
    "hep-10": lambda el, k: partition_hep(el, k=k, tau=10.0),
    "hep-1": lambda el, k: partition_hep(el, k=k, tau=1.0),
    "ne": lambda el, k: partition_ne(el, k=k),
    "sne": lambda el, k: partition_sne(el, k=k),
    "hdrf": lambda el, k: partition_streaming(el, k=k, method="hdrf"),
    "greedy": lambda el, k: partition_streaming(el, k=k, method="greedy"),
    "random": lambda el, k: partition_streaming(el, k=k, method="random"),
    "simple-hybrid-1": lambda el, k: partition_simple_hybrid(el, k=k, tau=1.0),
    "dbh": lambda el, k: dbh_np(el, k=k),
}

KS = (4, 32)

# SHA-256 of ``res.assignment.tobytes()`` (int64, C order).
DIGESTS = {
    ("hep-100", "LJ", 4): "1c4832fc974bbb62392705631ab2c17139ed58bab907251b2dbadfcc020fa6f9",
    ("hep-100", "LJ", 32): "4732af9e051039fd891b373e5bf66d2b08f8b6df5fdfc51853a2d5d53333d5fa",
    ("hep-100", "OK", 4): "b920a4f3da83b14e5d8101caa4f43d8f1aaa31f958f73b3266e7d0e3e4eb2821",
    ("hep-100", "OK", 32): "bce4477c95a245cd42add3d2be22cebd5d3709d5d649646059f5e56c1032be48",
    ("hep-100", "BR", 4): "290dd4d1b8d099de427276fc9dc217790da3f7221ddbd75165747ab615def380",
    ("hep-100", "BR", 32): "1d37836c9aee7f8eb52582afeced549963ab86729f4239268701d6e478d4f5a1",
    ("hep-100", "WI", 4): "fea92de5687268c00ab4618cb86d8d997689003f747755df28cfe039cf586dc5",
    ("hep-100", "WI", 32): "62f21adc384fc15434bcb0211ca6e3266f837578e533b6a16968fed2ee38d659",
    ("hep-100", "IT", 4): "81b5f4fb62bcb160d85f8d19e07fe0035a9ef4e0ebcd4a59700767215ab36bda",
    ("hep-100", "IT", 32): "0b7445afb217cc29f7b62e1c41e449061596074d400407a2428a02cb562ec0ed",
    ("hep-100", "TW", 4): "df349306ab0c9c10c711baacaf706e59d9b6a9b59f951831f6faac6f00b843f7",
    ("hep-100", "TW", 32): "4f867470c9b60a3f06c72f04912bf674debc6ab52be090ad84a94389f3f9600e",
    ("hep-10", "LJ", 4): "b5297e89f3eb70471243de64794c343d05803afa4cd73d138aa12afa555dfa2a",
    ("hep-10", "LJ", 32): "1f47ba70afb434fb8dff13ee9c948b04219054778db46a89a347e834c4e01eef",
    ("hep-10", "OK", 4): "ec85f86e8266bec28de3a299145f7f8012a9e8bcc8d49026a2809da91dc28aea",
    ("hep-10", "OK", 32): "40e5651d33f998069651bd57793abb41850e705096310d8e075d571038bb7582",
    ("hep-10", "BR", 4): "290dd4d1b8d099de427276fc9dc217790da3f7221ddbd75165747ab615def380",
    ("hep-10", "BR", 32): "1d37836c9aee7f8eb52582afeced549963ab86729f4239268701d6e478d4f5a1",
    ("hep-10", "WI", 4): "653061444991cb4742a3e8fd2776428acf86042657213f36f8be3f74251e8047",
    ("hep-10", "WI", 32): "9daea5a4ea42baa4a98a892f65456fc5b86f1a49afa448e753add88a4c6611ae",
    ("hep-10", "IT", 4): "348a797ece17d35d21c2645b065b7ed569552d28f8156c2c2460825cb0f1f2bb",
    ("hep-10", "IT", 32): "6d559e91357d4117bcf682fea877af66d95906c79b26a053057da9f33bba0459",
    ("hep-10", "TW", 4): "f806de0d7ab8fa657f0bc1f848121693f7498cb15186d592136defc45970abbb",
    ("hep-10", "TW", 32): "9eab615ebcebf1bb0be89311a59f7d79f4861b75fd16c83851fd2e883ca157b5",
    ("hep-1", "LJ", 4): "86fdc712897d6a61cc3ceb6dca948a6d4c55d6e39d1b7ca5e78e5f430138eaae",
    ("hep-1", "LJ", 32): "b0bb91f58bad5fa010f92976555ab37e80d44d5e023513e5f19c01223fa58a5b",
    ("hep-1", "OK", 4): "360773b2d2d2e1d8a34e17c328ecac16ca1287da0f1b4efac527263da49e722e",
    ("hep-1", "OK", 32): "0b5ae73ea253a6f204a597b6d9b7c100b2ebbf346266e3018742f143bf4dda21",
    ("hep-1", "BR", 4): "28c8a7461ce49fa845adc45db617d5ff17caf6e5d263ad8d5076cabdea61828d",
    ("hep-1", "BR", 32): "d314a656b9fc99fea38c903f0618ff91ce729f0211b362247bb6121aec49bf54",
    ("hep-1", "WI", 4): "78ff2968cde50ceffca3f4afd414d18f09b966f6e8d6fe57a1b999f372185800",
    ("hep-1", "WI", 32): "f63a9ea978a0b800cb16122b2ff96a05cd1f097a213082f37b28a19d2aa8fe73",
    ("hep-1", "IT", 4): "8272b7c54ce29c3dfde7d75c00a857fed38039acdae4a0e4688595c299947a48",
    ("hep-1", "IT", 32): "f16a6cf9581f30843e8ff222b13fac64692ce5d1787199f54872c2d05f95d83e",
    ("hep-1", "TW", 4): "24f05541091574ff43fa9de961de0e22f994e3cf02969d4e9f3ecf4d12dc39b7",
    ("hep-1", "TW", 32): "89bed0340c30a04d2c3e9b6140291f58e05ed355d06d1e8f1bf20258946e7316",
    ("ne", "LJ", 4): "3097f541d793ddedadd0dfaf1ee543b38d158dbbb5cb4ab5006905471d938d5f",
    ("ne", "LJ", 32): "bca435b001a2ae32f813d9a8d278381951569cbed9e6fae964cbca08be23fb99",
    ("ne", "OK", 4): "627faa73588dcc676eb17e97d4bdbcde0cd9c1946dae32d7c1cab8e4e917cb75",
    ("ne", "OK", 32): "4b868e6903aac14d83cd05a8352563ee126ad599deeb9bb745a3594aee2149dc",
    ("ne", "BR", 4): "edd333f30a9deb18f8e4351cd39cdd90ab5741205762d8aac30e56d622a3ea63",
    ("ne", "BR", 32): "ae45bd9be0d95fc56bb35bed5c1d4dc72b8b5625d969b084daf6b6fe883a2b02",
    ("ne", "WI", 4): "e73aac8ac957ab0152b24883174b367680872cb5eeaf29aec618537a1c4f1fe6",
    ("ne", "WI", 32): "c377777591032572264b5eb1bbf47f5ae8fa255d2174857c0df5db0a54c3cd41",
    ("ne", "IT", 4): "ec2e3efaf755d972b67d8d3e4cebfcde13f19fe3300b178482d420e6c643497e",
    ("ne", "IT", 32): "fded1e754f02e8d13c67afa888a067c78af990a7fb1f51a024c8371bcca945af",
    ("ne", "TW", 4): "189697d93ab6d5eb33cba590c0c0d71d8773b73fd335e4d4b5b14943cf2706a8",
    ("ne", "TW", 32): "4d548b6962f48c973195ba0762365f03e80e2c7fd60e2f7fe7005592b5e5fea3",
    ("sne", "LJ", 4): "8fc6e3712b8d8f1050034b128caf73984e8848f89243bfc52636f9cc9cc3f1c8",
    ("sne", "LJ", 32): "0454d77524e0ba97826bf7483360f9ce842428feac053c0674ae6c53f9abc48e",
    ("sne", "OK", 4): "e72525d89d89e78884cb4a93a0e09b1f03ae17a43fb7dddd1bb708628e738588",
    ("sne", "OK", 32): "7378bbc0a9a035fcd1781bf7ca8b065731623cfa6cf8d4c01887fb1c19b1c0b2",
    ("sne", "BR", 4): "96c7d20b19635f4289c46edea56f3a64611f70dddcca65d1ef5ef9c27819707e",
    ("sne", "BR", 32): "a05b4eb333bda1a440caddaaca4a307d53b5799284679c287ce749165ed8c555",
    ("sne", "WI", 4): "c807035840e8ff1771e550c223b34a7ace5b1d58901625c5a8b8e6ed8abeff2d",
    ("sne", "WI", 32): "90bbc22b0bcb20eb2920f288ea10f1f35eff69a49e203226e125107b4f6f057d",
    ("sne", "IT", 4): "6d894e2564980f966daaa3ec92a460011ab2befad59eb3f6acfacf5cd1134813",
    ("sne", "IT", 32): "09490ec066173b2e563940a554e9e2c55fdf5d8c7dde9658db2f0685a94d61b5",
    ("sne", "TW", 4): "6189151a30efb8b6ee7511529ea9a211056ad53236451e0ce7bf20ac0e276de7",
    ("sne", "TW", 32): "ddf8f4a91ab87124b28ef8910681036b6966e9e04733dd38f97e43f8101d8da9",
    ("hdrf", "LJ", 4): "c1d0339176f93430279b344ba7e6e15b4fc850fc4c8fbe0ef6f5d8385c667259",
    ("hdrf", "LJ", 32): "9c22fa8aa82b903493ef2f7113019ba32122313617958a1e168d0c77f2e4942d",
    ("hdrf", "OK", 4): "59a01fde5393f3cd6d806ae4214bc171a524a6905e34d33b459f8cf8f9727094",
    ("hdrf", "OK", 32): "d1647a78b903c2ceb5d499a581abb4193b8fa4605ede6ff91044a213b5f77239",
    ("hdrf", "BR", 4): "e3c253471d6ffed0fd5010004775347dbf60d9298e55fddd4aced0205f6c5473",
    ("hdrf", "BR", 32): "35b557d4708ec72e7bb88ff60d788e8d310a087f8c9016ef315b9658e31810a6",
    ("hdrf", "WI", 4): "188865cda04a33f1ed1065969322cecd07223368dd2d6ac3bd4d52c55727b981",
    ("hdrf", "WI", 32): "e0237bbb2a8fef6b19f134bb37769d9b35ab1666200ccf499124b1328275d800",
    ("hdrf", "IT", 4): "a4bbfbc0e9e7af80b91fa0a8ba2bce0661ff1b7ffa023a834dac03d7584e4587",
    ("hdrf", "IT", 32): "273dafc0ec02205b9b5c31e31d6fa8ccc4c9bce98ae31dde3e4a487a3001485e",
    ("hdrf", "TW", 4): "8c23c4f6cd9fcc2475148ac89baa949c425969b50d9469d4a502aab6e36ec03c",
    ("hdrf", "TW", 32): "49f5d835288f89d0d55640ac076df6b7947dcbcc650ed4109f58df0a8eb0931b",
    ("greedy", "LJ", 4): "9492c61fc5a9a09503ceb09c07364d9b7c0bd34eaaa7b741a5cc14787f45acb8",
    ("greedy", "LJ", 32): "5dfd45c8bc34fa54c2e7c5cfc29c366159465a7669852b5b1903192fde845422",
    ("greedy", "OK", 4): "040430b8c8205a8f397b6d0b738dc403ee7bc59164aaf8d399e2793c8566319c",
    ("greedy", "OK", 32): "fcc3955851330b52acd38a9222038da9960fdc5a2231e9f78e40911860f9712a",
    ("greedy", "BR", 4): "a0adbc208a74063688b885924dad9b4eaea36397dc6f1a8e42fb86470909e3da",
    ("greedy", "BR", 32): "4b0807e8116ab0e81d51c5e15db040547abdfa9a37fd15de15f0b517fc5f471b",
    ("greedy", "WI", 4): "46ac3cceffca604cc82861d0cb6baef59da0a2ed9613c62d63b66e718bafd960",
    ("greedy", "WI", 32): "fa85052f3243e64382b79b697e43c591184123124a3b30bb3eaa30be0a290ce8",
    ("greedy", "IT", 4): "bfc0f7b85bb75b98b3bd83c4a910196aab62db9b88a544c690e43f04e044dc29",
    ("greedy", "IT", 32): "472d04f7a54f65b684503be5fce713acac594994da4ecb416eb27b76a1fe8514",
    ("greedy", "TW", 4): "1357e99fe4ff23cc958769f495be94bf154c8ababafdaba625980545b9ebb9ad",
    ("greedy", "TW", 32): "7cb6f44616d23d71f8ee1e88400b42e6fa26792734dcc7f02dd2ff616fd996b8",
    ("random", "LJ", 4): "b4d5891824e0ff0c67522be70de8ec3f5e40c5ac093b308823467f488d61640d",
    ("random", "LJ", 32): "67a3601186b666d4dfd61fd4bf3c98e0ae7d603f7f28881aa2c929246261f8c8",
    ("random", "OK", 4): "7413977552a90baf7236564217aa8247cb0575f8221ca4672a3e785f6fd5c336",
    ("random", "OK", 32): "9d04303bc992d9cda8ca5fc3fd4503084685fd9e4244029d5602f28b6c594d83",
    ("random", "BR", 4): "dfd27c8658e4d070340a3cf79897773adfd560e06da787c013c6a20da26a9630",
    ("random", "BR", 32): "d959d00e77384e5ce6c32982a5391fe0b7113683937bd6f6d59afcc9296ab979",
    ("random", "WI", 4): "2d92c007bf37f68ee7ddcf10a9a2a9c6c93a8ceeba4f00a6a574010908a87640",
    ("random", "WI", 32): "1c083d806374e3a62e4defabe717e2913d28dccb8134e9d98d1fced561e3418b",
    ("random", "IT", 4): "2a649a7c26df1f2cc0d310575dad861d5ae10d050078873250b3a672ac492986",
    ("random", "IT", 32): "dfe2d070abc719205def1c61f4bef70631182b160fca10f6865248dc59d44716",
    ("random", "TW", 4): "46711bd85dd16c6dce1ed3f1c7ae772dd6cf5d0c16d3ddbd64c56208955187e3",
    ("random", "TW", 32): "94b1452e449e6ee0f4430b9005abf4314c6cfc395b9d5281e708614787863c5b",
    ("simple-hybrid-1", "LJ", 4): "72715967e5905dcfff01e25ccbd1e6960488bc66e858228ea62170907c46d13f",
    ("simple-hybrid-1", "LJ", 32): "d6ba488f67a29e0b39b9b1199742a42a172332e31af872d575880b661ea0baae",
    ("simple-hybrid-1", "OK", 4): "0d7a61ec459b234fd62c43adc9b3a46079b9472c5077d67e4bb95c3e02b0a354",
    ("simple-hybrid-1", "OK", 32): "04ebf144bae2cfaae1bb047acd660dc64d6caad7afda3469953ac68d22d58966",
    ("simple-hybrid-1", "BR", 4): "2288d4406503261d271844592117f9b9498692d54e04bad3be3c89a0d0b99dd8",
    ("simple-hybrid-1", "BR", 32): "91b6d526bfddcc853eb98b3a764bccf5ab5c147d0f434dbbb268ee9a71c992fa",
    ("simple-hybrid-1", "WI", 4): "e541f1f03f30083f6dfc444b7cb0c98d587b193dcdeaa568755e60a8c824c1cf",
    ("simple-hybrid-1", "WI", 32): "57b42edd5ebdf62791cfd26ba43a36fc5ec76533f4f23e75d6cf1674f97bc765",
    ("simple-hybrid-1", "IT", 4): "226f664611cbdebb8eb0cbc14a1fc239afae15b58394b56c5ae0ae5be8ac559a",
    ("simple-hybrid-1", "IT", 32): "2cacf3587d5bc201f444efa8f181179f7f6b1c04a0b8e6994a61468396d55c71",
    ("simple-hybrid-1", "TW", 4): "9f26fd98e06c1f2f15e339936e5d9aed3fd1d0422189221979c72483667e6394",
    ("simple-hybrid-1", "TW", 32): "cb6f8aad20993d19201f38c1b94341ed8935053ac3c62fbf1cd65c7914a235b6",
    ("dbh", "LJ", 4): "d87b5f909f1c32b8a7a57cc3233f1fc2ace8834a600e2a0949c69dd7d685d7e7",
    ("dbh", "LJ", 32): "7836766459aa12625c49df567fd969ffd99dd2bfe8127c10a587e636b125ac97",
    ("dbh", "OK", 4): "28844ccb3c11a420e9255dcf613779584bce59ba58125c3b3c603dff7cc4c427",
    ("dbh", "OK", 32): "db3e91bae55a1df8cd0452655c45892872d008c905aa7b6efacaac845fe40e32",
    ("dbh", "BR", 4): "f2a2724df56f535602cad3102a89df3411655eac76c710e99bcae2889c554b62",
    ("dbh", "BR", 32): "7cff47d4ebe34e554a2ff951c5871864b6e737fa08bd90a62d953aa0519ce248",
    ("dbh", "WI", 4): "355fe9ca879b8ce7bc27aa246187dfc8a4dfa6035adb8e943f5f43009788d033",
    ("dbh", "WI", 32): "e6bf47252a65853e88487d93b55e4131ef94d0d38ad27a70dc70b750a71f1f01",
    ("dbh", "IT", 4): "04518759cd44d0c77ac8dd31ba1bd3e5425eabc1215539fe0cff940438376843",
    ("dbh", "IT", 32): "405cfb243f6ff2447f3bcdd583bf4cbb765a28e499f7ca7858d5e19eabbf4aa8",
    ("dbh", "TW", 4): "6e114d8c7ea8eb6e9f74d2a98c07010d57ae68bfee14045e7f05b43e7caf079f",
    ("dbh", "TW", 32): "c7f04a6270402989dfb3acba1000316cb65d5c36f190820cca6f279565a9849b",
}


def _digest(res) -> str:
    assert res.assignment.dtype.name == "int64"
    return hashlib.sha256(res.assignment.tobytes()).hexdigest()


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name", TEST_GRAPHS)
@pytest.mark.parametrize("pname", sorted(PARTITIONERS))
def test_assignment_digest(pname, name, k):
    el = tiny_graph(name)
    first = _digest(PARTITIONERS[pname](el, k))
    again = _digest(PARTITIONERS[pname](el, k))
    assert first == again, f"{pname} is not deterministic on {name}, k={k}"
    assert first == DIGESTS[(pname, name, k)], (
        f"{pname} assignment on {name}, k={k} differs from the recorded one"
    )


def test_digest_table_covers_matrix():
    assert set(DIGESTS) == {
        (p, g, k) for p in PARTITIONERS for g in TEST_GRAPHS for k in KS
    }

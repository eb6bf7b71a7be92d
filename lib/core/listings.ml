(* The paper's listings as data; the checker that runs them is
   examples/paper_listings.ml. *)

module L = Dce_compiler.Level

type t = {
  name : string;
  src : string;
  expect : (string * L.t * int * bool * string) list;
}

let o1 = L.O1
let o2 = L.O2
let o3 = L.O3

let all =
  [
    (* Listing 3 (LLVM bug 49434): EarlyCSE cannot fold &a == &b[1] *)
    {
      name = "listing-3";
      src =
        {|
char a;
char b[2];
int main(void) {
  char *c = &a;
  char *d = &b[1];
  if (c == d) { DCEMarker0(); }
  return 0;
}
|};
      expect =
        [
          ("gcc", o3, 0, true, "GCC folds the address comparison");
          ("llvm", o3, 0, false, "LLVM's EarlyCSE misses non-zero offsets");
        ];
    };
    (* Listing 4 (GCC bug 99357): flow-insensitive global value analysis *)
    {
      name = "listing-4";
      src =
        {|
static int a = 0;
int main(void) {
  if (a) { DCEMarker0(); }
  a = 0;
  return 0;
}
|};
      expect =
        [
          ("gcc", o3, 0, false, "any store blocks GCC's flow-insensitive analysis");
          ("llvm", o3, 0, true, "the store re-writes the initializer: LLVM folds");
        ];
    };
    (* Listing 6a: a = 1 at the end — the LLVM 3.8 regression; both miss *)
    {
      name = "listing-6a";
      src =
        {|
static int a = 0;
int main(void) {
  if (a) { DCEMarker0(); }
  a = 1;
  return 0;
}
|};
      expect =
        [
          ("gcc", o3, 0, false, "flow-insensitive");
          ("llvm", o3, 0, false, "store of a different constant poisons the global");
        ];
    };
    (* Listing 6b: constancy through another global *)
    {
      name = "listing-6b";
      src =
        {|
static int a = 0;
static int b = 0;
int main(void) {
  b = a;
  if (b) { DCEMarker0(); }
  a = 1;
  return 0;
}
|};
      expect =
        [
          ("gcc", o3, 0, false, "cannot propagate a through b");
          ("llvm", o3, 0, false, "cannot propagate a through b");
        ];
    };
    (* Listing 7: LLVM's unswitching × constant propagation -O3 regression *)
    {
      name = "listing-7";
      src =
        {|
int a, b, c;
int main(void) {
  b = 0;
  while (a) { while (c) { if (b) { DCEMarker0(); } } }
  return 0;
}
|};
      expect =
        [
          ("llvm", o2, 0, true, "conditional memory propagation folds if(b)");
          ("llvm", o3, 0, false, "the new -O3 loop pipeline loses it (regression)");
          ("gcc", o3, 0, true, "GCC's pipeline keeps the conditional propagation");
        ];
    };
    (* Listing 8a (LLVM bug 49773): same regression family — a static global
       that stays 0 unless the dead path itself changes it ("a++" in the
       original).  Adapted so the check sits inside the loop, where only
       edge-aware conditional propagation can break the self-dependence. *)
    {
      name = "listing-8a";
      src =
        {|
static int a;
int c, e;
int main(void) {
  a = 0;
  while (e) {
    if (a) { DCEMarker0(); a = a + 1; }
    while (c) { use(c); }
  }
  return 0;
}
|};
      expect =
        [
          ("llvm", o2, 0, true, "loads of a fold to 0 at -O2");
          ("llvm", o3, 0, false, "missed at -O3 (regression)");
          ("gcc", o3, 0, true, "GCC's pipeline keeps the conditional propagation");
        ];
    };
    (* Listing 8b (LLVM bug 49731): mod of singleton ranges; fixed post-HEAD *)
    {
      name = "listing-8b";
      src =
        {|
int main(void) {
  int g = ext(3) & 7;
  if (g == 2) {
    if (g % 5 != 2) { DCEMarker0(); }
  }
  return 0;
}
|};
      expect =
        [
          ("llvm", o3, 0, false, "ConstantRange cannot fold [2,3) % [5,6) at HEAD");
          ("gcc", o3, 0, false, "GCC's VRP has no mod rule either");
        ];
    };
    (* Listing 9a (GCC bug 102546): X << Y != 0 implies X != 0 *)
    {
      name = "listing-9a";
      src =
        {|
int main(void) {
  int f = ext(1) & 7 | 1;
  int d = f << 2;
  if (d) {
    if (f == 0) { DCEMarker0(); }
  }
  return 0;
}
|};
      expect =
        [
          ("gcc", o3, 0, false, "GCC lacks the shift relation (fixed post-HEAD)");
          ("llvm", o3, 0, true, "LLVM's CVP derives f != 0");
        ];
    };
    (* Listing 9b (GCC bug 100034): dead static function survives at -O3 *)
    {
      name = "listing-9b";
      src =
        {|
static int a, b, f, g;
static int d(void) {
  while (g) { f = 0; }
  while (1) { DCEMarker0(); }
  return 0;
}
static void c(void) { d(); }
void e(void) {
  while (b) {
    if (!a) { continue; }
    c();
  }
}
int main(void) {
  e();
  return 0;
}
|};
      expect =
        [
          ("gcc", o1, 0, true, "late unreachable-node removal deletes d");
          ("gcc", o3, 0, false, "-O3 runs the removal early (pass ordering)");
          ("llvm", o3, 0, true, "LLVM's GlobalDCE runs late");
        ];
    };
    (* Listing 9c (GCC bug 100051): alias precision at -O3 *)
    {
      name = "listing-9c";
      src =
        {|
static int x = 0;
int y, z;
static int *tab[2];
int main(void) {
  x = 5;
  tab[0] = &y;
  tab[1] = &z;
  int *p = tab[ext(1) & 1];
  *p = 7;
  if (x != 5) { DCEMarker0(); }
  return 0;
}
|};
      expect =
        [
          ("gcc", o1, 0, false, "-O1 alias precision is also basic");
          ("gcc", o2, 0, true, "escape-filtered points-to proves x untouched");
          ("gcc", o3, 0, false, "-O3 caps points-to precision (regression)");
          ("llvm", o3, 0, true, "LLVM keeps capture tracking at -O3");
        ];
    };
    (* Listing 9e (GCC bug 99776): vectorized pointer loop blocks folding *)
    {
      name = "listing-9e";
      src =
        {|
static int a[2];
static int b;
static int *c[2];
int main(void) {
  for (b = 0; b < 2; b++) {
    c[b] = &a[1];
  }
  if (!c[0]) { DCEMarker0(); }
  return 0;
}
|};
      expect =
        [
          ("gcc", o2, 0, true, "unroll + store forwarding prove c[0] nonnull");
          ("gcc", o3, 0, false, "the vectorizer claims the loop first (regression)");
          ("llvm", o3, 0, true, "LLVM does not vectorize this shape");
        ];
    };
    (* Listing 9f (GCC bug 99419, duplicate of #80603): uniform array *)
    {
      name = "listing-9f";
      src =
        {|
int a;
static int b[2] = {0, 0};
int main(void) {
  if (b[a]) { DCEMarker0(); }
  return 0;
}
|};
      expect =
        [
          ("gcc", o3, 0, false, "no uniform-constant-array rule (known bug #80603)");
          ("llvm", o3, 0, true, "GlobalOpt folds the uniform load");
        ];
    };
  ]

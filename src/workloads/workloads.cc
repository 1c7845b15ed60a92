#include "src/workloads/workloads.h"

#include <sstream>

#include "src/cc/compiler.h"
#include "src/support/strings.h"
#include "src/vasm/assembler.h"

namespace omos {

namespace {

// ---- Hand-written assembly library core (one function per object) -----------

struct AsmFunc {
  const char* name;
  const char* source;
};

constexpr AsmFunc kLibCore[] = {
    {"f_open",
     ".text\n.global f_open\nf_open:\n  sys 3\n  ret\n"},
    {"f_close",
     ".text\n.global f_close\nf_close:\n  sys 4\n  ret\n"},
    {"f_read",
     ".text\n.global f_read\nf_read:\n  sys 2\n  ret\n"},
    {"f_getdents",
     ".text\n.global f_getdents\nf_getdents:\n  sys 6\n  ret\n"},
    {"f_stat",
     ".text\n.global f_stat\nf_stat:\n  sys 7\n  ret\n"},
    {"f_write",
     ".text\n.global f_write\nf_write:\n  sys 1\n  ret\n"},
    {"f_brk",
     ".text\n.global f_brk\nf_brk:\n  sys 5\n  ret\n"},
    {"f_time",
     ".text\n.global f_time\nf_time:\n  sys 8\n  ret\n"},
    {"f_exit",
     ".text\n.global f_exit\nf_exit:\n  sys 0\n  ret\n"},
    {"peek8",
     ".text\n.global peek8\npeek8:\n  ldb r0, [r0+0]\n  ret\n"},
    {"peek32",
     ".text\n.global peek32\npeek32:\n  ld r0, [r0+0]\n  ret\n"},
    {"poke8",
     ".text\n.global poke8\npoke8:\n  stb r1, [r0+0]\n  ret\n"},
    {"poke32",
     ".text\n.global poke32\npoke32:\n  st r1, [r0+0]\n  ret\n"},
    {"strlen",
     ".text\n.global strlen\n"
     "strlen:\n"
     "  mov r1, r0\n"
     "  movi r2, 0\n"
     "strlen_loop:\n"
     "  ldb r3, [r1+0]\n"
     "  beq r3, r2, strlen_done\n"
     "  addi r1, r1, 1\n"
     "  br strlen_loop\n"
     "strlen_done:\n"
     "  sub r0, r1, r0\n"
     "  ret\n"},
    {"strcmp",
     ".text\n.global strcmp\n"
     "strcmp:\n"
     "  movi r3, 0\n"
     "sc_loop:\n"
     "  ldb r2, [r0+0]\n"
     "  ldb r12, [r1+0]\n"
     "  bne r2, r12, sc_diff\n"
     "  beq r2, r3, sc_eq\n"
     "  addi r0, r0, 1\n"
     "  addi r1, r1, 1\n"
     "  br sc_loop\n"
     "sc_diff:\n"
     "  sub r0, r2, r12\n"
     "  ret\n"
     "sc_eq:\n"
     "  movi r0, 0\n"
     "  ret\n"},
    {"strcpy",
     ".text\n.global strcpy\n"
     "strcpy:\n"
     "  movi r3, 0\n"
     "scp_loop:\n"
     "  ldb r2, [r1+0]\n"
     "  stb r2, [r0+0]\n"
     "  beq r2, r3, scp_done\n"
     "  addi r0, r0, 1\n"
     "  addi r1, r1, 1\n"
     "  br scp_loop\n"
     "scp_done:\n"
     "  ret\n"},
    {"path_join",
     ".text\n.global path_join\n"
     "path_join:\n"
     "  movi r3, 0\n"
     "pj_a:\n"
     "  ldb r12, [r1+0]\n"
     "  beq r12, r3, pj_slash\n"
     "  stb r12, [r0+0]\n"
     "  addi r0, r0, 1\n"
     "  addi r1, r1, 1\n"
     "  br pj_a\n"
     "pj_slash:\n"
     "  movi r12, 47\n"
     "  stb r12, [r0+0]\n"
     "  addi r0, r0, 1\n"
     "pj_b:\n"
     "  ldb r12, [r2+0]\n"
     "  beq r12, r3, pj_done\n"
     "  stb r12, [r0+0]\n"
     "  addi r0, r0, 1\n"
     "  addi r2, r2, 1\n"
     "  br pj_b\n"
     "pj_done:\n"
     "  stb r3, [r0+0]\n"
     "  ret\n"},
    {"print_str",
     ".text\n.global print_str\n"
     "print_str:\n"
     "  push lr\n"
     "  push r4\n"
     "  mov r4, r0\n"
     "  call strlen\n"
     "  mov r2, r0\n"
     "  mov r1, r4\n"
     "  movi r0, 1\n"
     "  sys 1\n"
     "  pop r4\n"
     "  pop lr\n"
     "  ret\n"},
    {"print_char",
     ".text\n.global print_char\n"
     "print_char:\n"
     "  lea r1, pc_buf\n"
     "  stb r0, [r1+0]\n"
     "  movi r0, 1\n"
     "  movi r2, 1\n"
     "  sys 1\n"
     "  ret\n"
     ".data\npc_buf: .space 4\n"},
    {"print_num",
     ".text\n.global print_num\n"
     "print_num:\n"
     "  lea r1, pn_end\n"
     "  movi r2, 10\n"
     "pn_loop:\n"
     "  mod r3, r0, r2\n"
     "  addi r3, r3, 48\n"
     "  addi r1, r1, -1\n"
     "  stb r3, [r1+0]\n"
     "  div r0, r0, r2\n"
     "  movi r3, 0\n"
     "  bne r0, r3, pn_loop\n"
     "  lea r2, pn_end\n"
     "  sub r2, r2, r1\n"
     "  movi r0, 1\n"
     "  sys 1\n"
     "  ret\n"
     ".data\npn_buf: .space 16\npn_end: .space 4\n"},
    {"print_mode",
     ".text\n.global print_mode\n"
     "print_mode:\n"
     "  push lr\n"
     "  movi r2, 16384\n"
     "  and r1, r0, r2\n"
     "  movi r3, 0\n"
     "  lea r0, pm_dash\n"
     "  beq r1, r3, pm_go\n"
     "  lea r0, pm_d\n"
     "pm_go:\n"
     "  call print_str\n"
     "  lea r0, pm_perms\n"
     "  call print_str\n"
     "  pop lr\n"
     "  ret\n"
     ".data\npm_d: .asciiz \"d\"\npm_dash: .asciiz \"-\"\npm_perms: .asciiz \"rw-r--r-- \"\n"},
    {"abort",
     ".text\n.global abort\nabort:\n  movi r0, 134\n  sys 0\n  ret\n"},
    {"malloc",
     // Trivial bump allocator over brk.
     ".text\n.global malloc\n"
     "malloc:\n"
     "  lea r2, malloc_cur\n"
     "  ld r1, [r2+0]\n"
     "  movi r3, 0\n"
     "  bne r1, r3, m_have\n"
     "  mov r3, r0\n"        // save size
     "  movi r0, 0\n"
     "  sys 5\n"              // query brk
     "  mov r1, r0\n"
     "  mov r0, r3\n"
     "  movi r3, 0\n"
     "m_have:\n"
     "  st r1, [r2+0]\n"
     "  add r3, r1, r0\n"     // new cur
     "  mov r12, r0\n"
     "  mov r0, r3\n"
     "  sys 5\n"              // extend brk
     "  st r3, [r2+0]\n"
     "  mov r0, r1\n"
     "  ret\n"
     ".data\n.align 4\nmalloc_cur: .word 0\n"},
};

std::string FillerFunc(const std::string& prefix, int index, int total, bool chain) {
  std::ostringstream out;
  out << ".text\n.global " << prefix << index << "\n" << prefix << index << ":\n";
  out << "  movi r1, " << (index % 13 + 3) << "\n";
  out << "  mul r0, r0, r1\n";
  out << "  addi r0, r0, " << (index % 7) << "\n";
  if (chain && index % 5 == 0 && index + 1 < total) {
    out << "  push lr\n  call " << prefix << (index + 1) << "\n  pop lr\n";
  }
  out << "  ret\n";
  return out.str();
}

Result<Archive> BuildFillerLib(const std::string& name, const std::string& prefix, int count) {
  Archive archive(name);
  for (int i = 0; i < count; ++i) {
    OMOS_TRY(ObjectFile obj,
             Assemble(FillerFunc(prefix, i, count, /*chain=*/true), StrCat(prefix, i, ".o")));
    archive.Add(std::move(obj));
  }
  return archive;
}

constexpr char kCrt0[] =
    ".text\n"
    ".global _start\n"
    "_start:\n"
    "  call main\n"
    "  sys 0\n";

constexpr char kLsSource[] = R"(
int dirbuf[160];
int statbuf[4];
int pathbuf[64];

int main(int argc, int argv) {
  int longmode = 0;
  int dir = 0;
  int i = 1;
  while (i < argc) {
    int arg = peek32(argv + i * 4);
    if (peek8(arg) == '-') { longmode = 1; }
    else { dir = arg; }
    i = i + 1;
  }
  if (dir == 0) { dir = "/data"; }
  int fd = f_open(dir);
  if (fd < 0) {
    print_str("ls: cannot open directory\n");
    return 1;
  }
  int n = f_getdents(fd, &dirbuf, 640);
  while (n > 0) {
    int off = 0;
    while (off < n) {
      int rec = &dirbuf + off;
      if (longmode) {
        path_join(&pathbuf, dir, rec + 16);
        if (f_stat(&pathbuf, &statbuf) == 0) {
          print_mode(statbuf[1]);
          print_num(statbuf[0]);
          print_str(" ");
        }
      }
      print_str(rec + 16);
      print_str("\n");
      off = off + 64;
    }
    n = f_getdents(fd, &dirbuf, 640);
  }
  f_close(fd);
  return 0;
}
)";

std::string CodegenFileSource(int file, int funcs, const WorkloadParams& params) {
  std::ostringstream out;
  for (int j = 0; j < funcs; ++j) {
    out << "int cg_" << file << "_" << j << "(int x) {\n";
    out << "  int y = x * " << (file + j + 3) << " + " << (j % 11) << ";\n";
    // Touch each library family so all six get linked and lazily bound.
    switch (j % 4) {
      case 0:
        out << "  y = y + a1_" << (file * 3 + j) % params.alpha_functions << "(x);\n";
        break;
      case 1:
        out << "  y = y + a2_" << (file * 5 + j) % params.alpha_functions << "(x);\n";
        break;
      case 2:
        out << "  y = y + m_" << (file + j) % params.libm_functions << "(x);\n";
        break;
      default:
        out << "  y = y + C_" << (file * 2 + j) % params.libcpp_functions << "(x);\n";
        break;
    }
    if (j + 1 < funcs) {
      out << "  return y + cg_" << file << "_" << (j + 1) << "(x + 1);\n";
    } else {
      out << "  return y;\n";
    }
    out << "}\n";
  }
  return out.str();
}

std::string CodegenMainSource(const WorkloadParams& params) {
  std::ostringstream out;
  out << R"(
int iobuf[64];

int read_input(int path) {
  int fd = f_open(path);
  if (fd < 0) { return 0; }
  int n = f_read(fd, &iobuf, 256);
  int total = 0;
  int j = 0;
  while (j < n) {
    total = total + peek8(&iobuf + j);
    j = j + 1;
  }
  f_close(fd);
  return total;
}

int main(int argc, int argv) {
  int total = read_input("/input/f0");
  total = total + read_input("/input/f1");
  total = total + read_input("/input/f2");
  total = total + l_0(total);
  int i = 0;
  while (i < 140) {
)";
  // Call the chain entry of every 8th file.
  for (int file = 0; file < params.codegen_files; file += 8) {
    out << "    total = total + cg_" << file << "_0(i);\n";
  }
  out << R"(    i = i + 1;
  }
  if (total < 0) { total = 0 - total; }
  print_num(total);
  print_str("\n");
  return 0;
}
)";
  return out.str();
}

Result<ObjectFile> CompileUnit(const std::string& source, const std::string& name) {
  OMOS_TRY(std::string asm_text, CompileC(source));
  return Assemble(asm_text, name);
}

}  // namespace

Result<Workloads> BuildWorkloads(const WorkloadParams& params) {
  Workloads w;
  OMOS_TRY(w.crt0, Assemble(kCrt0, "crt0.o"));
  OMOS_TRY(w.ls_obj, CompileUnit(kLsSource, "ls.o"));

  // libc = handwritten core + filler.
  w.libc = Archive("libc");
  for (const AsmFunc& fn : kLibCore) {
    OMOS_TRY(ObjectFile obj, Assemble(fn.source, StrCat(fn.name, ".o")));
    w.libc.Add(std::move(obj));
  }
  for (int i = 0; i < params.libc_filler; ++i) {
    OMOS_TRY(ObjectFile obj,
             Assemble(FillerFunc("c_", i, params.libc_filler, true), StrCat("c_", i, ".o")));
    w.libc.Add(std::move(obj));
  }

  OMOS_TRY(w.alpha1, BuildFillerLib("alpha1", "a1_", params.alpha_functions));
  OMOS_TRY(w.alpha2, BuildFillerLib("alpha2", "a2_", params.alpha_functions));
  OMOS_TRY(w.libm, BuildFillerLib("libm", "m_", params.libm_functions));
  OMOS_TRY(w.libl, BuildFillerLib("libl", "l_", params.libl_functions));
  OMOS_TRY(w.libcpp, BuildFillerLib("libC", "C_", params.libcpp_functions));

  for (int file = 0; file < params.codegen_files; ++file) {
    OMOS_TRY(ObjectFile obj,
             CompileUnit(CodegenFileSource(file, params.codegen_funcs_per_file, params),
                         StrCat("cg", file, ".o")));
    w.codegen_objs.push_back(std::move(obj));
  }
  OMOS_TRY(ObjectFile main_obj, CompileUnit(CodegenMainSource(params), "cgmain.o"));
  w.codegen_objs.push_back(std::move(main_obj));
  return w;
}

void PopulateLsData(SimFs& fs, int files) {
  fs.Mkdir("/data");
  for (int i = 0; i < files; ++i) {
    std::string name = StrCat("/data/file", i < 10 ? "0" : "", i, ".txt");
    fs.WriteFile(name, std::string(static_cast<size_t>(40 + i * 17), 'x'));
  }
  fs.Mkdir("/data/subdir");
}

void PopulateCodegenInputs(SimFs& fs) {
  fs.Mkdir("/input");
  fs.WriteFile("/input/f0", "alpha geometry model one\n");
  fs.WriteFile("/input/f1", "spline surface patch two\n");
  fs.WriteFile("/input/f2", "nurbs evaluation input three\n");
}

Result<Module> ModuleFromArchive(const Archive& archive) {
  return ModuleFromObjects(archive.members());
}

Result<Module> ModuleFromObjects(const std::vector<ObjectFile>& objects) {
  std::vector<Module> parts;
  parts.reserve(objects.size());
  for (const ObjectFile& object : objects) {
    parts.push_back(Module::FromObject(std::make_shared<const ObjectFile>(object)));
  }
  return Module::MergeAll(parts);
}

std::string ExpectedLsShortOutput(const SimFs& fs, const std::string& dir) {
  auto names = fs.ListDir(dir);
  std::string out;
  if (!names.ok()) {
    return out;
  }
  for (const std::string& name : *names) {
    out += name;
    out += "\n";
  }
  return out;
}

}  // namespace omos
